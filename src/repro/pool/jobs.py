"""Job execution on a standing mesh: warm ranks, exact per-job accounting.

A pool job is a ``dist_run``-shaped unit of work (:class:`PoolJob`
wraps a :class:`~repro.dist.worker.DistConfig`) executed by agents that
*outlive* it.  Three things change relative to the cold launcher, and
this module owns all three:

1. **Stray-frame safety.**  The one-shot runtime could assume one
   collective in flight per phase; on a persistent mesh, a fast rank's
   next-phase frames can arrive while a slow rank still drains the
   previous phase.  :class:`PoolCommunicator` therefore overrides the
   ``exchange``-based collectives with a parked-frame-aware
   implementation: mismatched frames are parked (never dropped) and
   every collective consults the parked list first.  Per-pair FIFO
   ordering (both transports guarantee it) plus identical collective
   sequences on every rank make (src, tag) matching sufficient — no
   per-job epoch tags needed.

2. **Per-job ledgers on cumulative counters.**  The transport's
   :class:`~repro.dist.ledger.WireLedger` accumulates across jobs, so
   :func:`execute_job` snapshots it before and after and reports the
   difference — ``RankResult.wire`` stays exactly one job's traffic,
   and the Eq 6 audit keeps working per job.  The
   :mod:`~repro.dist.copytrack` ledger is process-global and resettable,
   so it is simply reset at job start.

3. **Checkpoint handoff.**  A recovery job (``PoolJob.checkpoint``
   set) broadcasts the merged checkpoint of the *failed* attempt, and
   every rank computes only its own sub-domains *missing* from it —
   survivors restore everything they already did, while the replacement
   rank (seated at the dead member's rank) computes exactly the dead
   rank's unfinished share.  Only the fresh entries cross the wire; the
   merge then contains the same per-sub-domain compressed fields as a
   clean run, accumulated in the same sorted order — bitwise identical
   to ``run_serial``.

Fresh (non-recovery) jobs delegate to the unmodified
:func:`~repro.dist.worker.rank_main`, so bitwise identity, overlap
streaming, and the fault-injection stages all carry over verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.accumulate import accumulate_boxes
from repro.core.checkpoint import (
    checkpoint_from_bytes,
    checkpoint_segments,
    join_checkpoint_segments,
)
from repro.dist import copytrack
from repro.dist.collectives import (
    _POLL_SLICE_S,
    TAG_EXCHANGE,
    TAG_FIELD,
    TAG_POOL_CHECKPOINT,
    TAG_SPECTRUM,
    Communicator,
)
from repro.dist.ledger import CATEGORY_EXCHANGE
from repro.dist.transport import Transport
from repro.dist.wire import Frame, FrameKind, FramePayload, Segments
from repro.dist.worker import (
    DistConfig,
    RankResult,
    _convolve_chunk,
    _own_subdomains,
    array_from_bytes,
    array_to_bytes,
    build_pipeline,
    rank_main,
)
from repro.errors import (
    CommunicationError,
    ConfigurationError,
    RankFailure,
    TransportError,
)
from repro.fft.pruned_plan import default_cache
from repro.octree.compress import CompressedField
from repro.serve.clock import Clock, MonotonicClock

__all__ = [
    "PoolCommunicator",
    "PoolJob",
    "TAG_POOL_CHECKPOINT",
    "execute_job",
    "wire_delta",
]

@dataclass
class PoolJob:
    """One unit of work shipped to the standing mesh.

    ``field``/``spectrum`` ride only on the rank-0 copy (every other
    rank receives them by in-mesh broadcast, exactly like the cold
    runtime).  ``checkpoint`` marks a recovery job: the merged
    checkpoint blob of the failed attempt this job resumes from.
    """

    job_id: int
    generation: int
    config: DistConfig
    field: Optional[np.ndarray] = None
    spectrum: Optional[np.ndarray] = None
    checkpoint: Optional[bytes] = None
    #: recovery marker — must survive :meth:`stripped` so every rank
    #: (not just rank 0, which holds the blob) takes the recovery path
    recovery: bool = False
    #: opaque caller stamps (tenant, request ids, ...) echoed back on the
    #: :class:`~repro.pool.pool.PoolJobReport` — the serving tier's
    #: attribution hook; the mesh never reads it
    metadata: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.checkpoint is not None:
            self.recovery = True

    def stripped(self) -> "PoolJob":
        """The non-rank-0 copy: same stamps, no input payloads.

        The ``recovery`` flag is kept: non-root ranks receive the merged
        checkpoint by in-mesh broadcast, but they must already know to
        run the recovery phase structure — a rank that fell back to the
        fresh path would recompute (and re-exchange) work the checkpoint
        already holds.  ``metadata`` is kept too: it is tiny, and a rank
        error report that names its tenant is worth the copy.
        """
        return PoolJob(
            job_id=self.job_id,
            generation=self.generation,
            config=self.config,
            recovery=self.recovery,
            metadata=self.metadata,
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


class PoolCommunicator(Communicator):
    """A :class:`Communicator` safe for back-to-back jobs on one mesh.

    The base class's ``sparse_allgather``/``alltoall`` ride the
    transport's ``exchange`` primitive, which *drops* frames from ranks
    it is not currently expecting — fatal on a standing mesh, where a
    fast peer's next collective can land mid-drain of the current one.
    The overrides here park such frames in ``self._parked`` and consult
    the parked list before touching the wire, so no frame is ever lost
    between phases or between jobs.
    """

    def __init__(
        self,
        transport: Transport,
        recv_timeout_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        clock: Optional[Clock] = None,
    ):
        super().__init__(
            transport, recv_timeout_s=recv_timeout_s, heartbeat_s=heartbeat_s
        )
        self.clock = clock if clock is not None else MonotonicClock()

    def _swap(
        self,
        outgoing: Dict[int, FramePayload],
        tag: int,
        category: str,
    ) -> Dict[int, FramePayload]:
        """All-to-peers send + receive that parks instead of dropping.

        Sends drain through a send window (immune to kernel-buffer
        deadlock, like the base exchange); receives match on (src, tag),
        parking everything else for the phase it belongs to.
        """
        peers = sorted(outgoing)
        pending = set(peers)
        got: Dict[int, FramePayload] = {}
        for parked in list(self._parked):
            if parked.src in pending and parked.tag == tag:
                self._parked.remove(parked)
                got[parked.src] = parked.payload
                pending.discard(parked.src)
        if not peers:
            return got
        window = self.transport.send_window(window=1, name="pool-swap")
        try:
            window.submit(
                [
                    (dst, Frame(FrameKind.DATA, self.rank, tag, outgoing[dst]), category)
                    for dst in peers
                ]
            )
            deadline = self.clock.now() + self.recv_timeout_s
            while pending:
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    raise TransportError(
                        f"rank {self.rank}: pool collective (tag {tag}) timed "
                        f"out after {self.recv_timeout_s}s with ranks "
                        f"{sorted(pending)} still silent"
                    )
                try:
                    frame = self.transport.recv(
                        min(remaining, _POLL_SLICE_S), category
                    )
                except TransportError:
                    if self.monitor is not None:
                        self.monitor.check()
                    continue  # re-check overall deadline
                self._note(frame)
                if frame.kind == FrameKind.HEARTBEAT:
                    continue
                if frame.kind == FrameKind.BYE:
                    if frame.src in pending:
                        raise RankFailure(
                            f"rank {frame.src} said BYE while rank "
                            f"{self.rank} still expected its collective "
                            f"payload (tag {tag})"
                        )
                    continue
                if frame.src in pending and frame.tag == tag:
                    got[frame.src] = frame.payload
                    pending.discard(frame.src)
                else:
                    self._parked.append(frame)
        except BaseException:
            # receive-side failure is primary; still reap the pump thread
            try:
                window.close(timeout=self.recv_timeout_s)
            except (TransportError, RankFailure, CommunicationError):
                pass
            raise
        window.close(timeout=self.recv_timeout_s)
        return got

    def sparse_allgather(
        self,
        payload: FramePayload,
        tag: int = TAG_EXCHANGE,
        category: str = CATEGORY_EXCHANGE,
    ) -> List[FramePayload]:
        """Park-aware sparse exchange (same contract as the base class)."""
        peers = [r for r in range(self.size) if r != self.rank]
        got = self._swap({dst: payload for dst in peers}, tag, category)
        result: List[FramePayload] = [b""] * self.size
        result[self.rank] = payload
        for src, received in got.items():
            result[src] = received
        return result

    def alltoall(
        self,
        payloads: List[FramePayload],
        tag: int = TAG_EXCHANGE,
        category: str = "data",
    ) -> List[FramePayload]:
        """Park-aware alltoall (same contract as the base class)."""
        if len(payloads) != self.size:
            raise CommunicationError(
                f"alltoall needs one payload per rank ({self.size}), "
                f"got {len(payloads)}"
            )
        peers = [r for r in range(self.size) if r != self.rank]
        got = self._swap({dst: payloads[dst] for dst in peers}, tag, category)
        result: List[FramePayload] = [b""] * self.size
        result[self.rank] = payloads[self.rank]
        for src, received in got.items():
            result[src] = received
        return result


def execute_job(
    comm: Communicator,
    job: PoolJob,
    post: Optional[Callable[[str, int, bytes], None]] = None,
    abort: Optional[Callable[[], None]] = None,
    clock: Optional[Clock] = None,
) -> Tuple[RankResult, Dict[str, float]]:
    """Run one rank's share of ``job`` on a warm communicator.

    Returns the rank result (with per-job wire accounting — the
    transport ledger's before/after difference) plus an ``extras`` dict
    of warmth evidence: plan-cache hits/misses attributable to this job.
    A warm resubmission of the same shape shows ``plan_misses == 0`` —
    the measured proof that plans persisted across jobs.
    """
    clock = clock if clock is not None else MonotonicClock()
    copytrack.reset()  # per-job copy accounting (process-global ledger)
    cache = default_cache()
    hits0, misses0 = cache.hits, cache.misses
    wire0 = comm.transport.ledger.snapshot()
    if not job.recovery:
        result = rank_main(
            comm,
            job.config,
            field=job.field,
            spectrum=job.spectrum,
            post=post,
            abort=abort,
            plans=cache,  # the warm path: plans survive from job to job
        )
    else:
        result = _recovery_rank_main(comm, job, post=post, clock=clock)
    result.wire = wire_delta(wire0, comm.transport.ledger.snapshot())
    extras = {
        "plan_hits": float(cache.hits - hits0),
        "plan_misses": float(cache.misses - misses0),
    }
    return result, extras


def _recovery_rank_main(
    comm: Communicator,
    job: PoolJob,
    post: Optional[Callable[[str, int, bytes], None]] = None,
    clock: Optional[Clock] = None,
) -> RankResult:
    """The recovery variant of ``rank_main``: restore, fill gaps, merge.

    Phase structure mirrors the barrier-mode worker, with the merged
    checkpoint of the failed attempt broadcast alongside the inputs and
    only checkpoint-missing sub-domains computed/exchanged.  Every rank
    ends holding the identical merged field set a clean run would have
    produced, so the accumulation — run in the same sorted sub-domain
    order — is bitwise identical to ``run_serial``.
    """
    clock = clock if clock is not None else MonotonicClock()
    config = job.config
    rank, size = comm.rank, comm.size
    if rank == 0:
        if job.field is None or job.spectrum is None or job.checkpoint is None:
            raise ConfigurationError(
                "rank 0 of a recovery job needs field, spectrum, and the "
                "merged checkpoint"
            )
        spectrum = np.asarray(job.spectrum)
        field = np.asarray(job.field, dtype=np.float64)
        checkpoint_blob: bytes = bytes(job.checkpoint)
        comm.broadcast(array_to_bytes(spectrum), root=0, tag=TAG_SPECTRUM)
        comm.broadcast(array_to_bytes(field), root=0, tag=TAG_FIELD)
        comm.broadcast(checkpoint_blob, root=0, tag=TAG_POOL_CHECKPOINT)
    else:
        spectrum = array_from_bytes(comm.broadcast(None, root=0, tag=TAG_SPECTRUM))
        field = array_from_bytes(comm.broadcast(None, root=0, tag=TAG_FIELD))
        checkpoint_blob = comm.broadcast(None, root=0, tag=TAG_POOL_CHECKPOINT)

    pipeline = build_pipeline(config, spectrum, plans=default_cache())
    restored: Dict[int, CompressedField] = checkpoint_from_bytes(checkpoint_blob)

    # Phase 1: compute only this rank's sub-domains absent from the
    # checkpoint — for a survivor that is (usually) nothing, for the
    # replacement it is exactly the dead rank's unfinished share.
    t0 = clock.now()
    own_new: List[Tuple[object, CompressedField]] = []
    for sub in _own_subdomains(pipeline, rank, size):
        if sub.index in restored:
            continue
        compressed = _convolve_chunk(pipeline, field, sub)
        if compressed is not None:
            own_new.append((sub, compressed))
    compute_s = clock.now() - t0

    # Phase 2: checkpoint + exchange the fresh entries only.
    segments = checkpoint_segments(own_new, precision=config.precision)
    blob = join_checkpoint_segments(segments)
    if post is not None:
        post("checkpoint", rank, blob)
    t1 = clock.now()
    blobs = comm.sparse_allgather(Segments(segments), tag=TAG_EXCHANGE)
    exchange_s = clock.now() - t1
    blobs[rank] = blob

    merged: Dict[int, CompressedField] = dict(restored)
    for payload in blobs:
        if len(payload):
            merged.update(checkpoint_from_bytes(payload))

    blocks = accumulate_boxes(
        merged, _own_subdomains(pipeline, rank, size), config.interpolation
    )

    return RankResult(
        rank=rank,
        blocks=blocks,
        num_chunks=len(own_new),
        total_samples=sum(f.pattern.sample_count for _s, f in own_new),
        compressed_bytes=sum(f.nbytes for _s, f in own_new),
        exchange_payload_bytes=len(blob),
        compute_s=compute_s,
        exchange_s=exchange_s,
        wire=comm.transport.ledger.snapshot(),
        copies=copytrack.ledger().snapshot(),
    )
