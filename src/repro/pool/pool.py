"""The pool controller: a warm mesh that executes jobs on demand.

:class:`RankPool` is the client half of the standing-pool design.  It
discovers agents through a rendezvous
(:mod:`~repro.pool.rendezvous`), seats them in a generation-numbered
:class:`~repro.pool.membership.Roster`, and then drives them with the
job driver a cold ``dist_run`` uses (:mod:`repro.dist.runtime`:
:func:`~repro.dist.runtime.form_mesh`, :func:`~repro.dist.runtime.run_job`)
— what is the pool's own is that :meth:`~RankPool.submit` reuses the mesh
from job to job: processes, transports, and FFT plans all persist, so
only the first submission pays spawn + plan costs.

Fault tolerance is in-mesh: when a rank dies mid-job (control
connection EOF), the controller merges every checkpoint the job posted,
seats a replacement at the dead member's rank
(:meth:`~repro.pool.membership.Roster.replace` — it inherits the dead
rank's sub-domain share), re-forms the mesh under the bumped
generation, and resubmits the job as a *recovery job* carrying the
merged checkpoint (:mod:`~repro.pool.jobs`).  Survivors restore their
finished work; the replacement computes only the dead rank's missing
share; the result stays bitwise identical to ``run_serial``.  Should
the recovery job itself fail, the controller falls back to the
driver-side :func:`~repro.dist.recover_from_checkpoints` path.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field, replace as dataclass_replace
from multiprocessing.connection import Client, Connection
from typing import Dict, FrozenSet, Iterator, List, Optional

import numpy as np

from repro.core.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.core.decomposition import DomainDecomposition
from repro.dist.inputs import Chunks, KernelBook
from repro.dist.jobs import PoolJob
from repro.dist.launcher import (
    DistRunReport,
    assemble_blocks,
    build_report,
    recover_from_checkpoints,
)
from repro.dist.runtime import SpmdOutcome, control_reply, form_mesh, run_job
from repro.dist.worker import DistConfig, composite_field
from repro.errors import ConfigurationError, PoolError, ReproError
from repro.pool.agent import spawn_local_agents, start_detached_agents
from repro.pool.membership import Roster, fence_generation
from repro.pool.rendezvous import (
    AgentCard,
    parse_rendezvous,
    wait_for_cards,
)
from repro.util.clock import Clock, MonotonicClock

__all__ = ["PoolJobReport", "RankPool", "private_pool"]


@dataclass
class PoolJobReport(DistRunReport):
    """What a job on the standing pool adds to a
    :class:`~repro.dist.DistRunReport`: which job on which roster, what
    recovery did, and the evidence that the mesh was warm.  Traffic is
    per job — the ranks' ledgers are differenced around it."""

    job_id: int = 0
    #: roster generation the (final, successful) job ran under
    generation: int = 0
    #: dead ranks actually re-seated with a replacement agent in-mesh —
    #: the failover evidence a serving tier surfaces to its metrics
    replaced_ranks: List[int] = dataclass_field(default_factory=list)
    #: True when the driver-side fallback produced the result (the
    #: in-mesh recovery job could not run)
    driver_fallback: bool = False
    #: True when the mesh survived from a previous job (no re-formation)
    warm: bool = False
    #: plan-table hits/misses across ranks over this job —
    #: a warm resubmission of the same shape shows ``plan_misses == 0``
    plan_hits: int = 0
    plan_misses: int = 0
    #: the submitter's :attr:`~repro.dist.jobs.PoolJob.metadata`, echoed
    #: back verbatim (the serving tier's ``request_id`` and ``job_index``)
    metadata: Optional[Dict[str, object]] = None


class RankPool:
    """Controller for a standing set of rank agents.

    Typical lifecycle::

        pool = RankPool("file:///tmp/rdv")
        pool.spawn(4)          # or agents started elsewhere join the URL
        pool.connect(4)        # roster + warm TCP mesh
        report = pool.submit(config)        # cold: spawns plans
        report = pool.submit(config)        # warm: plans + mesh reused
        pool.down()
    """

    def __init__(
        self,
        rendezvous_url: str,
        recv_timeout_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        clock: Optional[Clock] = None,
    ):
        self.rendezvous = parse_rendezvous(rendezvous_url)
        self.recv_timeout_s = float(recv_timeout_s)
        self.heartbeat_s = heartbeat_s
        self.clock = clock if clock is not None else MonotonicClock()
        self.roster: Optional[Roster] = None
        self._conns: Dict[int, Connection] = {}
        self._procs: List = []
        self._next_job_id = 0
        self._mesh_formed = False
        #: jobs completed on the currently-formed mesh (warm evidence)
        self._jobs_on_mesh = 0
        #: the kernels this controller has named, by content key
        self._kernels = KernelBook()
        #: the kernel keys each rank last reported holding (mesh
        #: ``ready`` replies, then every job's results)
        self._held: Dict[int, FrozenSet[bytes]] = {}

    # -- membership ---------------------------------------------------------
    def spawn(self, count: int, host: str = "127.0.0.1") -> None:
        """Start ``count`` local agent processes joined to the rendezvous."""
        self._procs.extend(
            spawn_local_agents(self.rendezvous.describe(), count, host=host)
        )

    def connect(self, expected: int, timeout_s: float = 30.0) -> Roster:
        """Wait for ``expected`` agents, form the roster and the mesh."""
        cards = wait_for_cards(
            self.rendezvous, expected, timeout_s, clock=self.clock
        )
        self.roster = Roster.form(cards)
        for member in self.roster.members():
            self._dial(member.rank, member.card)
        self._new_mesh()
        return self.roster

    def disconnect(self) -> None:
        """Drop control connections; agents (and their meshes) stay warm."""
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
        self._mesh_formed = False

    def down(self, timeout_s: float = 10.0) -> None:
        """Shut every member down and reap locally-spawned agents."""
        for rank, conn in self._conns.items():
            try:
                conn.send(("shutdown",))
                control_reply(conn, f"rank {rank}", timeout_s, self.clock)
            except (OSError, PoolError):
                pass
        self.disconnect()
        for proc in self._procs:
            proc.join(timeout=timeout_s)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()
        self.roster = None

    # -- job submission -----------------------------------------------------
    def submit(
        self,
        config: DistConfig,
        field: Optional[np.ndarray] = None,
        spectrum: Optional[np.ndarray] = None,
        recover: bool = True,
        metadata: Optional[Dict[str, object]] = None,
        expected_generation: Optional[int] = None,
    ) -> PoolJobReport:
        """Run one ``dist_run``-shaped job on the warm mesh.

        ``config.num_ranks`` must equal the roster size.  On a rank
        death the job is recovered in-mesh when ``recover`` is true
        (checkpoint handoff to a replacement agent), else the failure is
        raised as :class:`~repro.errors.PoolError`.

        ``spectrum=None`` is the default kernel of ``config``: every rank
        evaluates it for itself and nothing ships.  A spectrum that is
        given is named by its content key
        (:class:`~repro.dist.inputs.KernelBook`) and travels, with the
        job message, only to ranks whose standing table lacks it.

        ``metadata`` rides on the job and is echoed back on the report
        (the serving tier stamps ``request_id`` and ``job_index``);
        ``expected_generation``
        fences the submission at the serve boundary — a caller that
        believes the roster is at generation G gets
        :class:`~repro.errors.StaleGenerationError` instead of silently
        running on a membership it has not observed (it can then refresh
        its view and resubmit).
        """
        roster = self._require_roster()
        if expected_generation is not None:
            fence_generation(expected_generation, roster.generation)
        if config.num_ranks != roster.size:
            raise ConfigurationError(
                f"job wants {config.num_ranks} ranks but the pool has "
                f"{roster.size} members (resize the job)"
            )
        if field is None:
            field = composite_field(config.n, config.seed)
        field = np.asarray(field, dtype=np.float64)

        t0 = self.clock.now()
        # the one scan of the dense field: rank 0 is handed these blocks,
        # and the report audits these indices
        blocks = list(DomainDecomposition(n=config.n, k=config.k).active_blocks(field))
        # warm = at least one job already ran on this mesh: the agents'
        # processes, transports, and plan tables are all primed
        was_warm = self._mesh_formed and self._jobs_on_mesh > 0
        if not self._mesh_formed:
            self._new_mesh()
        self._next_job_id += 1
        kernel_key, spectrum = self._kernels.name(config, spectrum)
        job = PoolJob(
            job_id=self._next_job_id,
            generation=roster.generation,
            config=config,
            blocks=blocks,
            kernel_key=kernel_key,
            spectrum=spectrum,
            metadata=metadata,
        )
        outcome = self._run(job)

        if outcome.clean:
            self._jobs_on_mesh += 1
            return self._report(job, outcome, blocks, t0, warm=was_warm)
        if not recover:
            raise PoolError(
                f"job {job.job_id} failed on ranks "
                f"{sorted(outcome.failures)}: {outcome.failures}"
            )
        return self._recover_job(job, outcome, t0)

    # -- internals ----------------------------------------------------------
    def _require_roster(self) -> Roster:
        if self.roster is None:
            raise PoolError("pool is not connected (call connect() first)")
        return self.roster

    def _dial(self, rank: int, card: AgentCard) -> None:
        try:
            self._conns[rank] = Client((card.host, card.port), family="AF_INET")
        except OSError as exc:
            raise PoolError(
                f"agent {card.agent_id} (rank {rank}) unreachable at "
                f"{card.host}:{card.port}: {exc}"
            ) from exc

    def _run(self, job: PoolJob) -> SpmdOutcome:
        """Run ``job`` on the mesh, its kernel attached for the ranks
        that lack it, and note what every rank holds afterwards (nothing
        known for a rank that returned no result: it is sent the kernel
        again)."""
        job.ship_to = frozenset(
            rank for rank, keys in self._held.items() if job.kernel_key not in keys
        )
        outcome = run_job(self._conns, job, self.clock)
        for rank in self._held:
            result = outcome.results.get(rank)
            self._held[rank] = frozenset(result.kernel_keys if result else ())
        return outcome

    def _new_mesh(self) -> None:
        """Form the current generation's mesh; no job has run on it yet."""
        roster = self._require_roster()
        self._held = form_mesh(
            self._conns,
            {m.rank: m.card.host for m in roster.members()},
            roster.generation,
            self.recv_timeout_s,
            self.heartbeat_s,
            self.clock,
        )
        self._mesh_formed = True
        self._jobs_on_mesh = 0

    def _recover_job(
        self, job: PoolJob, outcome: SpmdOutcome, t0: float
    ) -> PoolJobReport:
        """Replace the dead, re-form, resubmit with the merged checkpoint:
        rank 0 is handed only the blocks the checkpoint lacks."""
        roster = self._require_roster()
        config = job.config
        blobs = outcome.all_checkpoint_blobs()
        merged = {}
        for blob in blobs:
            merged.update(checkpoint_from_bytes(blob))
        failed_ranks = sorted(outcome.failures)
        replaced_ranks: List[int] = []

        try:
            for rank in sorted(outcome.dead):
                replacement = self._replacement_card()
                dead_card = roster.card(rank)
                roster.replace(rank, replacement)
                try:
                    self.rendezvous.withdraw(dead_card.agent_id)
                except ReproError:
                    pass
                conn = self._conns.pop(rank, None)
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
                self._dial(rank, roster.card(rank))
                replaced_ranks.append(rank)
            self._new_mesh()
            decomp = DomainDecomposition(n=config.n, k=config.k)
            checkpoint = checkpoint_to_bytes(
                [(decomp.subdomain(i), f) for i, f in sorted(merged.items())],
                precision=config.precision,
            )
            # the retry must not re-inject the fault that killed attempt
            # one — the replacement sits at the same rank the injection
            # targets
            retry_config = dataclass_replace(
                config, fail_rank=None, fail_stage=None
            )
            retry = PoolJob(
                job_id=job.job_id,
                generation=roster.generation,
                config=retry_config,
                blocks=[pair for pair in job.blocks if pair[0].index not in merged],
                kernel_key=job.kernel_key,
                spectrum=job.spectrum,
                checkpoint=checkpoint,
                metadata=job.metadata,
            )
            retry_outcome = self._run(retry)
            if retry_outcome.clean:
                self._jobs_on_mesh += 1
                return self._report(
                    retry,
                    retry_outcome,
                    job.blocks,
                    t0,
                    recovered=True,
                    exclude_indices=frozenset(merged),
                    failed_ranks=failed_ranks,
                    replaced_ranks=replaced_ranks,
                )
            blobs += retry_outcome.all_checkpoint_blobs()
        except PoolError:
            pass
        # in-mesh recovery impossible (roster unfillable / retry failed):
        # fall back to the driver-side checkpoint recovery; the report
        # audits the whole job, beside the ranks of the first attempt
        self._mesh_formed = False
        return self._report(
            job,
            outcome,
            job.blocks,
            t0,
            approx=recover_from_checkpoints(config, job.blocks, job.spectrum, blobs),
            generation=roster.generation,
            recovered=True,
            driver_fallback=True,
            failed_ranks=failed_ranks,
            replaced_ranks=replaced_ranks,
        )

    def _replacement_card(self) -> AgentCard:
        """A spare agent's card: prefer rendezvous spares, else start one.

        A pool this controller spawned gets a child like its members; a
        pool started elsewhere (``pool up``) gets a detached agent, which
        outlives this controller as the members it replaces do.
        """
        roster = self._require_roster()
        members = set(roster.agent_ids())
        spares = [
            c for c in self.rendezvous.cards() if c.agent_id not in members
        ]
        if spares:
            return spares[0]
        if self._procs:
            self.spawn(1)
        else:
            start_detached_agents(self.rendezvous.describe(), 1)
        fresh = wait_for_cards(
            self.rendezvous,
            1,
            timeout_s=30.0,
            clock=self.clock,
            exclude=tuple(members),
        )
        return fresh[0]

    def _report(
        self,
        job: PoolJob,
        outcome: SpmdOutcome,
        blocks: Chunks,
        t0: float,
        approx: Optional[np.ndarray] = None,
        **fields,
    ) -> PoolJobReport:
        """``job``'s report from the attempt ``outcome`` over the job's
        active ``blocks``; ``approx`` is assembled from its ranks' blocks
        unless the caller recovered it."""
        results = outcome.results.values()
        if approx is None:
            approx = assemble_blocks(job.config, outcome.results)
        fields.setdefault("generation", job.generation)
        return build_report(
            PoolJobReport,
            job.config,
            [sub.index for sub, _block in blocks],
            outcome,
            approx,
            self.clock.now() - t0,
            job_id=job.job_id,
            plan_hits=sum(r.plan_hits for r in results),
            plan_misses=sum(r.plan_misses for r in results),
            metadata=job.metadata,
            **fields,
        )


@contextmanager
def private_pool(ranks: int) -> Iterator[RankPool]:
    """A connected throwaway pool of ``ranks`` locally-spawned agents.

    The pool lives on a ``file://`` rendezvous in a fresh temporary
    directory; leaving the block shuts the agents down and removes the
    directory, also when the body (or the bring-up itself) raises.
    """
    with tempfile.TemporaryDirectory(
        prefix="repro-pool-", ignore_cleanup_errors=True
    ) as directory:
        pool = RankPool(f"file://{directory}")
        try:
            pool.spawn(ranks)
            pool.connect(ranks)
            yield pool
        finally:
            pool.down()
