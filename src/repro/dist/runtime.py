"""The job driver: form a mesh of rank processes, dispatch, drain posts.

Two execution substrates behind one entry point, :func:`run_spmd`:

- ``local`` — each rank is a thread over a shared
  :class:`~repro.dist.transport.LocalFabric`.  Deterministic, fast, and
  the substrate for fault-injection tests (a "crash" is a fabric kill).
  The thread harness, :func:`run_local`, runs any per-rank body: the
  traditional FFT convolution of :mod:`repro.dist.traditional` is its
  other caller.
- ``tcp`` — each rank is a real OS process serving the
  :class:`~repro.dist.agent.RankAgent` control loop over its end of a
  :mod:`multiprocessing` pipe.  The driver speaks to it exactly as the
  standing pool (:class:`repro.pool.RankPool`) speaks to its agents, with
  the functions below: :func:`form_mesh` (two-phase and race-free —
  every rank binds port 0, the OS picks, and the driver distributes the
  complete endpoint list before any rank dials), then :func:`run_job`.
  A cold run is one job at one constant generation on processes that are
  forked for it and shut down after it.

Either way the driver ends up with a :class:`SpmdOutcome`: per-rank
results, per-rank checkpoint blobs (posted *before* the exchange — the
fault-tolerance state), and a record of which ranks failed and why.  The
driver never aborts on a rank failure; deciding how to recover is the
caller's job (:func:`~repro.dist.launcher.dist_run` recovers driver-side,
the pool replaces the dead in-mesh).  A control plane that stops
answering *outside* a job — a rank that hangs up while the mesh is being
formed — is a :class:`~repro.errors.PoolError`.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from dataclasses import dataclass, field as dataclass_field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.dist.agent import RankAgent, serve_connection
from repro.dist.collectives import Communicator
from repro.dist.inputs import Chunks
from repro.dist.jobs import PoolJob
from repro.dist.transport import LocalFabric
from repro.dist.worker import DistConfig, RankResult, rank_main
from repro.errors import PoolError
from repro.util.clock import Clock, MonotonicClock

#: Backstop for one job on a formed mesh (compute + exchange).
RUN_DEADLINE_S = 120.0

#: Driver-side wait slice between looks at the clock.
_POLL_S = 0.02

#: The one generation a cold run forms its mesh at and stamps its job with.
COLD_GENERATION = 1


@dataclass
class SpmdOutcome:
    """Everything the driver collected from one job attempt."""

    results: Dict[int, RankResult] = dataclass_field(default_factory=dict)
    #: whole-run checkpoint blobs posted by ranks before the barrier-mode
    #: exchange
    checkpoints: Dict[int, bytes] = dataclass_field(default_factory=dict)
    #: per-chunk checkpoint blobs posted by overlap-mode ranks as each
    #: chunk completes (push order preserved) — the state that lets the
    #: driver resume from a death mid-exchange
    chunk_checkpoints: Dict[int, List[bytes]] = dataclass_field(
        default_factory=dict
    )
    #: failed ranks -> reason (empty on a clean run)
    failures: Dict[int, str] = dataclass_field(default_factory=dict)
    #: the failed ranks whose process is gone (control connection at EOF)
    #: — what a standing pool must replace; the rest reported an error
    #: and still answer
    dead: Set[int] = dataclass_field(default_factory=set)
    #: bytes of the job messages the driver sent over the control
    #: connections, all ranks (0 for thread ranks, which share the
    #: driver's memory)
    control_in_bytes: int = 0

    @property
    def clean(self) -> bool:
        """True when every rank returned a result."""
        return not self.failures

    def post(self, kind: str, rank: int, payload: bytes) -> None:
        """File one checkpoint blob a rank posted (``rank_main``'s
        ``post`` hook, or the same message off a control connection)."""
        if kind == "checkpoint":
            self.checkpoints[rank] = payload
        elif kind == "chunk":
            self.chunk_checkpoints.setdefault(rank, []).append(payload)

    def all_checkpoint_blobs(self) -> List[bytes]:
        """Every posted checkpoint blob, whole-run and per-chunk alike."""
        blobs = list(self.checkpoints.values())
        for chunks in self.chunk_checkpoints.values():
            blobs.extend(chunks)
        return blobs


def run_spmd(
    config: DistConfig,
    blocks: Chunks,
    spectrum: Optional[np.ndarray],
    clock: Optional[Clock] = None,
) -> SpmdOutcome:
    """Run the full SPMD job on the configured transport.

    ``blocks`` are the job's active ``(sub-domain, k^3 block)`` pairs
    (:meth:`~repro.core.decomposition.DomainDecomposition.active_blocks`),
    handed to rank 0; ``spectrum`` is handed to every rank, and
    ``None`` is the default kernel of ``config``, evaluated rank-side.
    A cold run keys no kernel: its ranks keep nothing past the job."""
    clock = clock if clock is not None else MonotonicClock()
    if config.transport == "tcp":
        return _run_processes(config, blocks, spectrum, clock)
    outcome = SpmdOutcome()
    lock = threading.Lock()

    def post(kind: str, rank: int, payload: bytes) -> None:
        with lock:
            outcome.post(kind, rank, payload)

    def body(comm: Communicator, abort: Callable[[], None]) -> RankResult:
        return rank_main(
            comm,
            config,
            blocks=blocks if comm.rank == 0 else None,
            spectrum=spectrum,
            post=post,
            abort=abort,
        )

    return run_local(
        config.num_ranks,
        body,
        recv_timeout_s=config.recv_timeout_s,
        heartbeat_s=config.heartbeat_s,
        clock=clock,
        outcome=outcome,
    )


class _InjectedCrash(Exception):
    """Unwinds a thread-rank simulating a crash (never escapes the runtime)."""


def run_local(
    num_ranks: int,
    body: Callable[[Communicator, Callable[[], None]], Any],
    recv_timeout_s: float = 30.0,
    heartbeat_s: Optional[float] = None,
    clock: Optional[Clock] = None,
    outcome: Optional[SpmdOutcome] = None,
) -> SpmdOutcome:
    """Run ``body(comm, abort)`` on ``num_ranks`` thread-ranks over one
    :class:`~repro.dist.transport.LocalFabric`; returns the outcome.

    ``body``'s return value is the rank's entry in ``outcome.results``;
    an exception it raises is the rank's entry in ``outcome.failures``,
    and ``abort()`` kills the rank on the fabric (an injected crash).
    Every communicator is closed when its body returns or raises, so
    peers still waiting on a failed rank see its ``BYE`` at once instead
    of sitting out their receive timeout.  ``outcome`` lets a body post
    into the outcome it is filling (the checkpoint mailbox of
    :func:`run_spmd`).
    """
    clock = clock if clock is not None else MonotonicClock()
    outcome = outcome if outcome is not None else SpmdOutcome()
    fabric = LocalFabric(num_ranks)
    lock = threading.Lock()

    def run_rank(rank: int) -> None:
        comm = Communicator(
            fabric.endpoint(rank),
            recv_timeout_s=recv_timeout_s,
            heartbeat_s=heartbeat_s,
            clock=clock,
        )

        def abort() -> None:
            fabric.kill(rank)
            raise _InjectedCrash()

        try:
            result = body(comm, abort)
            with lock:
                outcome.results[rank] = result
        except _InjectedCrash:
            with lock:
                outcome.failures[rank] = "injected crash"
        except Exception as exc:  # noqa: BLE001  # repro-lint: broad-except-ok(driver boundary: failure recorded in outcome, caller decides recovery)
            with lock:
                outcome.failures[rank] = f"{type(exc).__name__}: {exc}"
        finally:
            # also on failure: the beacon thread must not outlive the run,
            # and BYE tells the peers this rank is gone
            comm.close()

    threads = [
        threading.Thread(target=run_rank, args=(rank,), daemon=True)
        for rank in range(num_ranks)
    ]
    for t in threads:
        t.start()
    deadline = clock.now() + RUN_DEADLINE_S
    for rank, t in enumerate(threads):
        t.join(timeout=max(0.0, deadline - clock.now()))
        if t.is_alive():
            with lock:
                outcome.failures.setdefault(rank, "rank thread hung past deadline")
    return outcome


# -- the control plane, driver side -------------------------------------------
def _drain(
    pending: Dict[Connection, int], timeout_s: float, clock: Clock
) -> Iterator[Tuple[int, Optional[tuple]]]:
    """Yield ``(rank, message)`` as the ``pending`` control connections
    speak, until ``pending`` is empty or ``timeout_s`` has passed.

    The caller takes a connection out of ``pending`` once it has what it
    wanted from it.  A connection at EOF — the process behind it is gone
    — is taken out here and yields ``message=None``.
    """
    deadline = clock.now() + float(timeout_s)
    while pending and clock.now() < deadline:
        for conn in connection_wait(list(pending), timeout=_POLL_S):
            rank = pending[conn]
            try:
                message = conn.recv()
            except (OSError, EOFError):
                message = None
                del pending[conn]
            yield rank, message


def control_reply(
    conn: Connection, who: str, timeout_s: float, clock: Clock
) -> tuple:
    """The next control message from ``who``, deadline on ``clock``."""
    for _rank, message in _drain({conn: 0}, timeout_s, clock):
        if message is None:
            raise PoolError(f"{who} hung up mid-reply")
        return message
    raise PoolError(f"{who} sent no control reply within {timeout_s}s")


def form_mesh(
    conns: Dict[int, Connection],
    hosts: Dict[int, str],
    generation: int,
    recv_timeout_s: float,
    heartbeat_s: Optional[float],
    clock: Clock,
) -> Dict[int, FrozenSet[bytes]]:
    """Two-phase formation of the generation-``generation`` mesh over the
    ranks of ``hosts``: collect data ports, broadcast endpoints.  Returns
    the kernel keys each rank's ``ready`` reply says its spectrum table
    holds."""
    ranks = sorted(hosts)

    def gather(kind: str, timeout_s: float) -> Dict[int, tuple]:
        replies = {}
        for rank in ranks:
            reply = control_reply(conns[rank], f"rank {rank}", timeout_s, clock)
            if reply[0] != kind:
                raise PoolError(
                    f"rank {rank} answered {reply!r} where {kind!r} was due "
                    f"(forming the generation-{generation} mesh)"
                )
            replies[rank] = reply
        return replies

    for rank in ranks:
        conns[rank].send(
            ("form", generation, rank, len(ranks), recv_timeout_s, heartbeat_s)
        )
    ports = gather("port", 30.0)
    endpoints = [(hosts[rank], int(ports[rank][2])) for rank in ranks]
    # every rank must hear "mesh" before any can finish dialing, so send
    # to all first, then collect readiness
    for rank in ranks:
        conns[rank].send(("mesh", generation, endpoints))
    return {rank: frozenset(reply[3]) for rank, reply in gather("ready", 60.0).items()}


def run_job(
    conns: Dict[int, Connection], job: PoolJob, clock: Clock
) -> SpmdOutcome:
    """Dispatch ``job`` to every rank of a formed mesh and drain posts
    until each has answered, died, or run past :data:`RUN_DEADLINE_S`."""
    outcome = SpmdOutcome()
    pending: Dict[Connection, int] = {}
    # each distinct message pickled once, its length counted: rank 0's
    # carries the blocks, a rank's in job.ship_to the kernel array
    messages: Dict[Tuple[bool, bool], bytes] = {}
    for rank, conn in sorted(conns.items()):
        form = (rank == 0, rank in job.ship_to)
        if form not in messages:
            messages[form] = pickle.dumps(("job", job.for_rank(rank)))
        message = messages[form]
        try:
            conn.send_bytes(message)
            outcome.control_in_bytes += len(message)
            pending[conn] = rank
        except OSError:
            outcome.failures[rank] = "control connection dead at dispatch"
            outcome.dead.add(rank)
    for rank, message in _drain(pending, RUN_DEADLINE_S, clock):
        if message is None:
            # the decisive death signal: the rank's process is gone
            outcome.failures[rank] = "rank process died (EOF)"
            outcome.dead.add(rank)
            continue
        kind = message[0]
        if kind in ("checkpoint", "chunk"):
            outcome.post(kind, message[1], message[2])
        elif kind == "result":
            outcome.results[rank] = message[2]
            del pending[conns[rank]]
        elif kind == "job-error":
            outcome.failures[rank] = message[2]
            del pending[conns[rank]]
        # anything else (a late pong, ...) is dropped
    for rank in pending.values():
        outcome.failures[rank] = "rank timed out past the run deadline"
    return outcome


# -- the cold launch: processes forked for one job ----------------------------
def mp_context():
    """Fork when available (fast, inherits the warm import state)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _rank_process(rank: int, conn: Connection, inherited: list) -> None:
    """Child-process body of one cold rank: the agent loop on ``conn``.

    ``inherited`` are the driver's pipe ends a forked child holds copies
    of; once they are closed here, the driver closing (or losing) its own
    is this rank's EOF, and EOF is a cold rank's shutdown.
    """
    for driver_end in inherited:
        driver_end.close()
    agent = RankAgent(f"cold-{rank}")
    try:
        serve_connection(agent, conn)
    finally:
        agent.teardown_mesh()


def _run_processes(
    config: DistConfig,
    blocks: Chunks,
    spectrum: Optional[np.ndarray],
    clock: Clock,
) -> SpmdOutcome:
    ctx = mp_context()
    conns: Dict[int, Connection] = {}
    procs = []
    for rank in range(config.num_ranks):
        conns[rank], child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_rank_process,
            args=(rank, child_conn, list(conns.values())),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        procs.append(proc)
    try:
        form_mesh(
            conns,
            dict.fromkeys(conns, "127.0.0.1"),
            COLD_GENERATION,
            config.recv_timeout_s,
            config.heartbeat_s,
            clock,
        )
        job = PoolJob(
            job_id=0,
            generation=COLD_GENERATION,
            config=config,
            blocks=blocks,
            spectrum=spectrum,
            ship_to=frozenset(conns),
        )
        return run_job(conns, job, clock)
    finally:
        for conn in conns.values():
            conn.close()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
