"""Job execution on a formed mesh: exact per-job accounting, warm ranks.

A job is a ``dist_run``-shaped unit of work (:class:`PoolJob` wraps a
:class:`~repro.dist.worker.DistConfig`) executed by a rank process that
may *outlive* it: a pool agent serves a stream of them, a cold
``dist_run`` rank exactly one.  The rank body is the unmodified
:func:`~repro.dist.worker.rank_main` on a plain
:class:`~repro.dist.collectives.Communicator` (whose parked-frame
matching is what makes back-to-back jobs on one mesh safe); what this
module adds is the bracketing a long-lived rank needs around it:

1. **Per-job ledgers on cumulative counters.**  The transport's
   :class:`~repro.dist.ledger.WireLedger` accumulates across jobs, so
   :func:`execute_job` snapshots it before and after and reports the
   difference — ``RankResult.wire`` stays exactly one job's traffic,
   and the exchange audit keeps working per job.  The
   :mod:`~repro.util.copytrack` ledger is process-global and resettable,
   so it is simply reset at job start.

2. **Warm plans.**  Every pipeline reads its FFT plans from the
   process-wide plan table (:data:`~repro.fft.pruned_plan.PLANS`); the
   table's hit/miss difference over the job rides on the result as
   evidence that plans persisted.

3. **Standing kernels and pipelines.**  The agent's spectrum table
   (:data:`~repro.dist.inputs.SPECTRUM_TABLE_BYTES`, keyed on content)
   is handed to every job, and the result reports the keys it holds
   after the job (``RankResult.kernel_keys``), so the driver attaches a
   kernel only to a job message for a rank that lacks it; so is its
   pipeline table, keyed on the kernel's key and the job's shape, so a
   warm job builds no pipeline and re-runs no §3.1 check on its kernel.
   A replacement agent starts with empty tables, reports none, and is
   sent the kernel once.

4. **Checkpoint handoff.**  A recovery job (``PoolJob.checkpoint`` set)
   is a *resumed* ``rank_main``: the merged checkpoint of the failed
   attempt is broadcast, and every rank is sent and computes only its
   own sub-domains missing from it — survivors restore everything they
   already did, while the replacement rank (seated at the dead member's
   rank) computes exactly the dead rank's unfinished share, in whichever
   exchange mode the job's ``overlap`` asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import Callable, Dict, FrozenSet, Optional

import numpy as np

from repro.dist.collectives import Communicator
from repro.dist.inputs import Chunks
from repro.dist.worker import DistConfig, RankResult, rank_main
from repro.errors import StaleGenerationError
from repro.fft import pruned_plan
from repro.util import copytrack
from repro.util.lru import WeightedLRU

__all__ = ["PoolJob", "execute_job", "fence_generation", "wire_delta"]


def fence_generation(seen: int, current: int) -> None:
    """Reject work stamped with any generation but ``current``.

    The standalone form of :meth:`repro.pool.membership.Roster.fence`,
    for call sites that hold a generation number without holding a
    roster (a rank fencing an incoming job against the generation its
    mesh was formed at).  GEN001 statically requires a fence on every
    path into ``execute_job``; this helper is the canonical way to
    provide one.
    """
    if int(seen) != int(current):
        raise StaleGenerationError(
            f"roster generation {seen} rejected "
            f"(current generation is {current})",
            seen=int(seen),
            current=int(current),
        )


@dataclass
class PoolJob:
    """One unit of work shipped to a formed mesh.

    ``blocks`` and ``checkpoint`` ride only on rank 0's copy
    (:meth:`for_rank`).  ``blocks`` are the job's active ``(sub-domain,
    k^3 block)`` pairs, cut once by the driver
    (:meth:`~repro.core.decomposition.DomainDecomposition.active_blocks`)
    — a recovery job's only those its checkpoint lacks — never the dense
    ``n^3`` field: rank 0 keeps its own pairs and scatters every other
    rank its share in-mesh, exactly like the cold runtime.
    ``kernel_key`` names the job's kernel on every rank's copy
    (:mod:`repro.dist.inputs`; ``None`` on a cold job, whose ranks key
    nothing); ``spectrum`` is the array, and it rides only on the copies
    for the ranks in ``ship_to``, the ones whose tables lack the key.
    ``spectrum=None`` is the config's default kernel, which no one ships.
    ``checkpoint`` marks a recovery job: the merged checkpoint blob of
    the failed attempt this job resumes from.
    """

    job_id: int
    generation: int
    config: DistConfig
    blocks: Optional[Chunks] = None
    kernel_key: Optional[bytes] = None
    spectrum: Optional[np.ndarray] = None
    ship_to: FrozenSet[int] = frozenset()
    checkpoint: Optional[bytes] = None
    #: recovery marker — must survive :meth:`for_rank` so every rank
    #: (not just rank 0, which holds the blob) resumes from it
    recovery: bool = False
    #: opaque caller stamps echoed back on the
    #: :class:`~repro.pool.pool.PoolJobReport` — the serving tier stamps
    #: ``request_id`` and ``job_index``; the mesh never reads it
    metadata: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.checkpoint is not None:
            self.recovery = True

    def for_rank(self, rank: int) -> "PoolJob":
        """The copy the driver sends rank ``rank``: the input payloads
        only on rank 0's, the spectrum only where ``ship_to`` has it.

        The ``recovery`` flag is kept: non-root ranks receive the merged
        checkpoint by in-mesh broadcast, but they must already know to
        expect it — a rank that ran the job as fresh would recompute (and
        re-exchange) work the checkpoint already holds.  ``metadata`` is
        kept too: it is tiny, and a rank error report that names its
        request is worth the copy.
        """
        root = rank == 0
        return dataclass_replace(
            self,
            blocks=self.blocks if root else None,
            checkpoint=self.checkpoint if root else None,
            spectrum=self.spectrum if rank in self.ship_to else None,
            ship_to=frozenset(),
        )


def wire_delta(before: dict, after: dict) -> dict:
    """Per-counter difference of two ledger snapshots (one job's traffic).

    Returned in snapshot shape (``{"counters": {...}}``) so it merges
    with :func:`~repro.dist.ledger.merge_wire_snapshots` exactly like a
    fresh per-run snapshot would.
    """
    b = before.get("counters", {})
    a = after.get("counters", {})
    return {
        "counters": {
            name: int(value) - int(b.get(name, 0))
            for name, value in a.items()
            if int(value) - int(b.get(name, 0))
        }
    }


def execute_job(
    comm: Communicator,
    job: PoolJob,
    post: Optional[Callable[[str, int, bytes], None]] = None,
    abort: Optional[Callable[[], None]] = None,
    spectra: Optional[WeightedLRU] = None,
    pipelines: Optional[WeightedLRU] = None,
) -> RankResult:
    """Run one rank's share of ``job`` on a formed communicator.

    ``spectra`` and ``pipelines`` are the agent's standing spectrum and
    pipeline tables; the result reports the keys ``spectra`` holds after
    the job.

    Returns the rank result with per-job accounting: ``wire`` is the
    transport ledger's before/after difference, and ``plan_hits`` /
    ``plan_misses`` the plan table's traffic over this job.  A
    warm resubmission of the same shape shows ``plan_misses == 0`` — the
    measured proof that plans persisted across jobs.
    """
    copytrack.reset()  # per-job copy accounting (process-global ledger)
    table = pruned_plan.PLANS
    hits0, misses0 = table.hits, table.misses
    wire0 = comm.transport.ledger.snapshot()
    result = rank_main(
        comm,
        job.config,
        blocks=job.blocks,
        kernel_key=job.kernel_key,
        spectrum=job.spectrum,
        post=post,
        abort=abort,
        checkpoint=job.checkpoint,
        resumed=job.recovery,
        spectra=spectra,
        pipelines=pipelines,
    )
    result.wire = wire_delta(wire0, comm.transport.ledger.snapshot())
    result.plan_hits = table.hits - hits0
    result.plan_misses = table.misses - misses0
    if spectra is not None:
        result.kernel_keys = tuple(key for key, _spectrum in spectra.items())
    return result
