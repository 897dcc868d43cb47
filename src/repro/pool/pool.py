"""The pool controller: a warm, elastic mesh that executes jobs on demand.

:class:`RankPool` is the client half of the standing-pool design.  It
discovers agents through a rendezvous
(:mod:`~repro.pool.rendezvous`), seats them in a generation-numbered
:class:`~repro.pool.membership.Roster`, drives the two-phase mesh
formation (collect every agent's data port, then broadcast the endpoint
list), and then :meth:`~RankPool.submit`\\ s ``dist_run``-shaped jobs to
the warm mesh — processes, transports, and FFT plans all persist across
jobs, so only the first submission pays spawn + plan costs.

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

Liveness rides the existing :class:`~repro.dist.heartbeat
.HeartbeatMonitor`: every control-plane message records the member, and
:meth:`~repro.dist.heartbeat.HeartbeatMonitor.watch` /
``unwatch`` track admissions and evictions — though during a job the
decisive death signal is the control connection's EOF.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field as dataclass_field, replace as dataclass_replace
from multiprocessing.connection import Client, Connection, wait as connection_wait
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.core.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.core.decomposition import DomainDecomposition
from repro.dist.heartbeat import HeartbeatMonitor
from repro.dist.launcher import (
    assemble_blocks,
    expected_exchange_value_bytes,
    predicted_input_bytes,
    recover_from_checkpoints,
)
from repro.dist.ledger import merge_wire_snapshots
from repro.dist.worker import DistConfig, RankResult, composite_field
from repro.errors import ConfigurationError, PoolError, ReproError
from repro.pool.agent import spawn_local_agents
from repro.pool.jobs import PoolJob
from repro.pool.membership import Roster, fence_generation
from repro.pool.rendezvous import (
    AgentCard,
    parse_rendezvous,
    wait_for_cards,
)
from repro.serve.clock import Clock, MonotonicClock

__all__ = ["JOB_DEADLINE_S", "PoolJobReport", "RankPool", "private_pool"]

#: Overall deadline for one job on the mesh (mirrors the cold runtime's).
JOB_DEADLINE_S = 120.0

#: Controller-side poll slice while waiting on control connections.
_POOL_POLL_S = 0.02


@dataclass
class PoolJobReport:
    """Everything one pool job produced (the warm analogue of
    :class:`~repro.dist.DistRunReport`)."""

    approx: np.ndarray
    config: DistConfig
    job_id: int
    #: roster generation the (final, successful) job ran under
    generation: int
    #: wall time from submit to assembled result
    elapsed_s: float
    #: ranks that died or errored during the first attempt
    failed_ranks: List[int] = dataclass_field(default_factory=list)
    #: dead ranks actually re-seated with a replacement agent in-mesh —
    #: the failover evidence a serving tier surfaces to its metrics
    replaced_ranks: List[int] = dataclass_field(default_factory=list)
    #: True when the checkpoint-handoff (or driver fallback) path ran
    recovered: bool = False
    #: True when the driver-side fallback produced the result (the
    #: in-mesh recovery job could not run)
    driver_fallback: bool = False
    rank_results: Dict[int, RankResult] = dataclass_field(default_factory=dict)
    #: summed per-rank *per-job* ledger counters (snapshot differences)
    wire_totals: Dict[str, int] = dataclass_field(default_factory=dict)
    #: measured: this job's bytes-on-wire in the sparse exchange
    exchange_wire_bytes: int = 0
    #: exact Eq 6 accounting for this job (recovery jobs exclude the
    #: sub-domains restored from the checkpoint)
    predicted_value_bytes: int = 0
    #: measured: this job's input-distribution bytes-on-wire (scattered
    #: blocks, kernel announcements and misses; a resumed job's
    #: checkpoint broadcast too)
    input_wire_bytes: int = 0
    #: exact: the ``k^3`` blocks this job scatters (recovery jobs exclude
    #: the sub-domains restored from the checkpoint)
    predicted_input_bytes: int = 0
    #: True when the mesh survived from a previous job (no re-formation)
    warm: bool = False
    #: plan-cache hits/misses across ranks attributable to this job —
    #: a warm resubmission of the same shape shows ``plan_misses == 0``
    plan_hits: int = 0
    plan_misses: int = 0
    #: the submitter's :attr:`~repro.pool.jobs.PoolJob.metadata`, echoed
    #: back verbatim (tenant attribution for the serving tier)
    metadata: Optional[Dict[str, object]] = None

    @property
    def wire_over_model(self) -> float:
        """Measured exchange bytes over the Eq 6 prediction (per job)."""
        if not self.predicted_value_bytes:
            return 0.0
        return self.exchange_wire_bytes / self.predicted_value_bytes


@dataclass
class _JobOutcome:
    """What one job attempt yielded, before recovery decisions."""

    results: Dict[int, Tuple[RankResult, dict]] = dataclass_field(
        default_factory=dict
    )
    #: checkpoint/chunk blobs posted by any rank during the attempt
    blobs: List[bytes] = dataclass_field(default_factory=list)
    #: ranks whose control connection died (process gone)
    dead: Set[int] = dataclass_field(default_factory=set)
    #: ranks that reported a job error but are still alive
    errored: Set[int] = dataclass_field(default_factory=set)
    errors: Dict[int, str] = dataclass_field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.dead and not self.errored


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
        self.monitor = HeartbeatMonitor(
            [], timeout_s=4.0 * (heartbeat_s or recv_timeout_s), clock=self.clock.now
        )
        self._conns: Dict[int, Connection] = {}
        self._procs: List = []
        self._next_job_id = 0
        self._mesh_formed = False
        #: jobs completed on the currently-formed mesh (warm evidence)
        self._jobs_on_mesh = 0

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
            self.monitor.watch(member.rank)
        self._form_mesh()
        return self.roster

    def grow(self, count: int, timeout_s: float = 30.0) -> Roster:
        """Late join: admit ``count`` new agents and re-form the mesh.

        The existing members keep their ranks (and their warm plan
        caches); the newcomers take the free ranks and the next job's
        decomposition spreads across the larger roster.
        """
        roster = self._require_roster()
        known = tuple(roster.agent_ids())
        cards = wait_for_cards(
            self.rendezvous, count, timeout_s, clock=self.clock, exclude=known
        )
        for card in cards:
            member = roster.admit(card)
            self._dial(member.rank, member.card)
            self.monitor.watch(member.rank)
        self._form_mesh()
        return roster

    def status(self) -> List[dict]:
        """Ping every member; returns per-member liveness and seating."""
        roster = self._require_roster()
        out = []
        for member in roster.members():
            doc = {
                "rank": member.rank,
                "agent_id": member.card.agent_id,
                "host": member.card.host,
                "pid": member.card.pid,
                "alive": False,
                "generation": None,
            }
            try:
                conn = self._conns[member.rank]
                conn.send(("ping",))
                reply = self._recv_control(member.rank, timeout_s=5.0)
                if reply[0] == "pong":
                    doc["alive"] = True
                    doc["generation"] = reply[2]
            except (KeyError, OSError, EOFError, PoolError):
                pass
            out.append(doc)
        return out

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
        if self.roster is not None:
            for member in self.roster.members():
                conn = self._conns.get(member.rank)
                if conn is None:
                    continue
                try:
                    conn.send(("shutdown",))
                    self._recv_control(member.rank, timeout_s=timeout_s)
                except (OSError, EOFError, PoolError):
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
        given travels only to ranks whose standing table lacks it.

        ``metadata`` rides on the job and is echoed back on the report
        (tenant attribution for serving tiers); ``expected_generation``
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
                f"{roster.size} members (resize the pool or the job)"
            )
        if field is None:
            field = composite_field(config.n, config.seed)
        field = np.asarray(field, dtype=np.float64)

        t0 = self.clock.now()
        # warm = at least one job already ran on this mesh: the agents'
        # processes, transports, and plan caches are all primed
        was_warm = self._mesh_formed and self._jobs_on_mesh > 0
        if not self._mesh_formed:
            self._form_mesh()
        self._next_job_id += 1
        job = PoolJob(
            job_id=self._next_job_id,
            generation=roster.generation,
            config=config,
            field=field,
            spectrum=spectrum,
            metadata=metadata,
        )
        outcome = self._run_job(job)

        if outcome.clean:
            self._jobs_on_mesh += 1
            return self._report(
                job, outcome, field, t0, warm=was_warm, recovered=False
            )
        if not recover:
            raise PoolError(
                f"job {job.job_id} failed on ranks "
                f"{sorted(outcome.dead | outcome.errored)}: {outcome.errors}"
            )
        return self._recover_job(job, outcome, field, spectrum, t0)

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

    def _recv_control(self, rank: int, timeout_s: float) -> tuple:
        """One control reply from ``rank``, deadline on the pool clock."""
        conn = self._conns[rank]
        deadline = self.clock.now() + float(timeout_s)
        while True:
            if conn.poll(_POOL_POLL_S):
                try:
                    message = conn.recv()
                except (OSError, EOFError) as exc:
                    raise PoolError(
                        f"rank {rank} hung up mid-reply: {exc}"
                    ) from exc
                self.monitor.record(rank)
                return message
            if self.clock.now() >= deadline:
                raise PoolError(
                    f"rank {rank} sent no control reply within {timeout_s}s"
                )

    def _form_mesh(self) -> None:
        """Two-phase formation: collect data ports, broadcast endpoints."""
        roster = self._require_roster()
        members = roster.members()
        generation = roster.generation
        size = len(members)
        for member in members:
            self._conns[member.rank].send(
                (
                    "form",
                    generation,
                    member.rank,
                    size,
                    self.recv_timeout_s,
                    self.heartbeat_s,
                )
            )
        ports: Dict[int, int] = {}
        for member in members:
            reply = self._recv_control(member.rank, timeout_s=30.0)
            if reply[0] != "port":
                raise PoolError(
                    f"rank {member.rank} answered {reply[0]!r} to form "
                    f"(generation {generation}): {reply!r}"
                )
            ports[member.rank] = int(reply[2])
        endpoints = [(m.card.host, ports[m.rank]) for m in members]
        # every agent must hear "mesh" before any can finish dialing, so
        # send to all first, then collect readiness
        for member in members:
            self._conns[member.rank].send(("mesh", generation, endpoints))
        for member in members:
            reply = self._recv_control(member.rank, timeout_s=60.0)
            if reply[0] != "ready":
                raise PoolError(
                    f"rank {member.rank} failed to join the generation-"
                    f"{generation} mesh: {reply!r}"
                )
        self._mesh_formed = True
        self._jobs_on_mesh = 0

    def _run_job(self, job: PoolJob) -> _JobOutcome:
        """Dispatch ``job`` to every rank and drain posts until done."""
        roster = self._require_roster()
        outcome = _JobOutcome()
        for member in roster.members():
            payload = job if member.rank == 0 else job.stripped()
            try:
                self._conns[member.rank].send(("job", payload))
            except (OSError, BrokenPipeError):
                outcome.dead.add(member.rank)
                outcome.errors[member.rank] = "control connection dead at dispatch"
        pending = {
            m.rank for m in roster.members() if m.rank not in outcome.dead
        }
        by_conn = {self._conns[r]: r for r in pending}
        deadline = self.clock.now() + JOB_DEADLINE_S
        while pending:
            if self.clock.now() >= deadline:
                raise PoolError(
                    f"job {job.job_id} timed out after {JOB_DEADLINE_S}s "
                    f"with ranks {sorted(pending)} still running"
                )
            ready = connection_wait(
                [self._conns[r] for r in pending], timeout=_POOL_POLL_S
            )
            for conn in ready:
                rank = by_conn[conn]
                try:
                    message = conn.recv()
                except (OSError, EOFError):
                    # the decisive death signal: the agent process is gone
                    outcome.dead.add(rank)
                    outcome.errors.setdefault(rank, "agent died (EOF)")
                    pending.discard(rank)
                    continue
                self.monitor.record(rank)
                kind = message[0]
                if kind in ("checkpoint", "chunk"):
                    outcome.blobs.append(message[2])
                elif kind == "result":
                    outcome.results[rank] = (message[2], message[3])
                    pending.discard(rank)
                elif kind == "job-error":
                    outcome.errored.add(rank)
                    outcome.errors[rank] = message[2]
                    pending.discard(rank)
                # anything else (late pong etc.) is recorded and dropped
        return outcome

    def _recover_job(
        self,
        job: PoolJob,
        outcome: _JobOutcome,
        field: np.ndarray,
        spectrum: Optional[np.ndarray],
        t0: float,
    ) -> PoolJobReport:
        """Replace the dead, re-form, resubmit with the merged checkpoint."""
        roster = self._require_roster()
        config = job.config
        merged = {}
        for blob in outcome.blobs:
            merged.update(checkpoint_from_bytes(blob))
        failed_ranks = sorted(outcome.dead | outcome.errored)
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
                self.monitor.unwatch(rank)
                conn = self._conns.pop(rank, None)
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
                self._dial(rank, roster.card(rank))
                self.monitor.watch(rank)
                replaced_ranks.append(rank)
            self._form_mesh()
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
                field=field,
                spectrum=spectrum,
                checkpoint=checkpoint,
                metadata=job.metadata,
            )
            retry_outcome = self._run_job(retry)
            if retry_outcome.clean:
                self._jobs_on_mesh += 1
                report = self._report(
                    retry,
                    retry_outcome,
                    field,
                    t0,
                    warm=False,
                    recovered=True,
                    exclude_indices=frozenset(merged),
                )
                report.failed_ranks = failed_ranks
                report.replaced_ranks = replaced_ranks
                return report
            extra_blobs = retry_outcome.blobs
        except PoolError:
            extra_blobs = []
        # in-mesh recovery impossible (roster unfillable / retry failed):
        # fall back to the driver-side checkpoint recovery
        self._mesh_formed = False
        approx = recover_from_checkpoints(
            config, field, spectrum, outcome.blobs + extra_blobs
        )
        return PoolJobReport(
            approx=approx,
            config=config,
            job_id=job.job_id,
            generation=roster.generation,
            elapsed_s=self.clock.now() - t0,
            failed_ranks=failed_ranks,
            replaced_ranks=replaced_ranks,
            recovered=True,
            driver_fallback=True,
            metadata=job.metadata,
        )

    def _replacement_card(self) -> AgentCard:
        """A spare agent's card: prefer rendezvous spares, else spawn one."""
        roster = self._require_roster()
        members = set(roster.agent_ids())
        spares = [
            c for c in self.rendezvous.cards() if c.agent_id not in members
        ]
        if spares:
            return spares[0]
        self.spawn(1)
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
        outcome: _JobOutcome,
        field: np.ndarray,
        t0: float,
        warm: bool,
        recovered: bool,
        exclude_indices: frozenset = frozenset(),
    ) -> PoolJobReport:
        results = {r: res for r, (res, _extras) in outcome.results.items()}
        wire_totals = merge_wire_snapshots([r.wire for r in results.values()])
        plan_hits = sum(
            int(extras.get("plan_hits", 0))
            for _res, extras in outcome.results.values()
        )
        plan_misses = sum(
            int(extras.get("plan_misses", 0))
            for _res, extras in outcome.results.values()
        )
        return PoolJobReport(
            approx=assemble_blocks(job.config, results),
            config=job.config,
            job_id=job.job_id,
            generation=job.generation,
            elapsed_s=self.clock.now() - t0,
            recovered=recovered,
            rank_results=results,
            wire_totals=wire_totals,
            exchange_wire_bytes=wire_totals.get("sent.exchange.bytes", 0),
            predicted_value_bytes=expected_exchange_value_bytes(
                job.config, field, exclude_indices=exclude_indices or None
            ),
            input_wire_bytes=wire_totals.get("sent.bcast.bytes", 0),
            predicted_input_bytes=predicted_input_bytes(
                job.config, field, exclude_indices=exclude_indices or None
            ),
            warm=warm,
            plan_hits=plan_hits,
            plan_misses=plan_misses,
            metadata=job.metadata,
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
