"""The rank agent: a long-lived process serving jobs on a warm mesh.

One agent is one potential rank.  It starts knowing only a rendezvous
URL, publishes an :class:`~repro.pool.rendezvous.AgentCard` advertising
a control port, and then obeys the pool controller over one-shot control
connections:

``ping``
    Liveness + status probe; answers identity, generation, seated rank.
``form (generation, rank, size, recv_timeout_s, heartbeat_s)``
    Tear down any old mesh, bind a fresh data listener, answer its port.
    Formation is two-phase because no agent can dial peers before every
    peer has a listening port.
``mesh (generation, endpoints)``
    Dial the full mesh (:class:`~repro.dist.tcp.TcpTransport` with the
    backoff dialer — agents reach this step at different times) and
    stand up a :class:`~repro.dist.collectives.Communicator` on it.
``job (PoolJob)``
    Fence the job's generation against the agent's own, then run
    :func:`~repro.pool.jobs.execute_job` on the warm communicator.
    Checkpoint/chunk posts stream back over the same control connection
    before the final result — the controller's fault-tolerance mailbox.
``shutdown``
    Withdraw the card, tear down, exit the serve loop.

The agent survives controller disconnects: when a control connection
drops it simply re-accepts, keeping mesh, plans, kernel spectra and
process state warm for the next controller.  That is what makes
resubmission warm — nothing about the agent's life is scoped to one job
or one controller.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
from multiprocessing.connection import Connection, Listener
from typing import Callable, List, Optional, Tuple

from repro.dist.collectives import Communicator
from repro.dist.inputs import SPECTRUM_TABLE_BYTES
from repro.dist.tcp import TcpTransport
from repro.errors import ReproError, StaleGenerationError
from repro.pool.jobs import PoolJob, execute_job
from repro.pool.membership import fence_generation
from repro.pool.rendezvous import (
    AgentCard,
    Rendezvous,
    new_agent_id,
    parse_rendezvous,
)
from repro.serve.clock import Clock, MonotonicClock
from repro.util.lru import WeightedLRU

__all__ = ["PoolAgent", "agent_main", "spawn_local_agents"]


class PoolAgent:
    """The agent's state machine, separated from its accept loop.

    ``handle(message, send)`` processes one control message and returns
    ``False`` exactly once — on shutdown.  Keeping the machine free of
    sockets makes every transition (including generation fencing and
    mesh teardown) testable in-process.
    """

    def __init__(
        self,
        rendezvous: Rendezvous,
        host: str = "127.0.0.1",
        clock: Optional[Clock] = None,
        abort: Optional[Callable[[], None]] = None,
    ):
        self.rendezvous = rendezvous
        self.host = host
        self.clock = clock if clock is not None else MonotonicClock()
        # abort must leave no chance of a half-written result reaching the
        # controller; a dedicated agent process dies outright
        self._abort = abort if abort is not None else lambda: os._exit(1)
        self.agent_id = new_agent_id()
        self.generation = 0
        self.rank = -1
        self.comm: Optional[Communicator] = None
        #: kernel spectra this agent has been sent, by content key; it
        #: outlives jobs and meshes like the plan cache does
        self.spectra: WeightedLRU = WeightedLRU(SPECTRUM_TABLE_BYTES)
        self._pending_form: Optional[
            Tuple[int, int, int, float, Optional[float]]
        ] = None
        self._data_listener = None

    def card(self, control_port: int) -> AgentCard:
        """This agent's rendezvous card for a given control port."""
        return AgentCard(
            agent_id=self.agent_id,
            host=self.host,
            port=int(control_port),
            pid=os.getpid(),
        )

    def teardown_mesh(self) -> None:
        """Drop the formed mesh (new formation, error, or shutdown)."""
        if self.comm is not None:
            try:
                self.comm.close()
            except ReproError:
                pass
            self.comm = None
        if self._data_listener is not None:
            try:
                self._data_listener.close()
            except OSError:
                pass
            self._data_listener = None
        self.rank = -1

    def handle(self, message: tuple, send: Callable[[tuple], None]) -> bool:
        """Process one control message; ``False`` means exit the loop."""
        op = message[0]
        if op == "ping":
            send(("pong", self.agent_id, self.generation, self.rank))
            return True
        if op == "form":
            _op, generation, rank, size, recv_timeout_s, heartbeat_s = message
            self.teardown_mesh()
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, 0))
            listener.listen(max(1, int(size)))
            self._data_listener = listener
            self._pending_form = (
                int(generation),
                int(rank),
                int(size),
                float(recv_timeout_s),
                float(heartbeat_s) if heartbeat_s is not None else None,
            )
            send(("port", self.agent_id, listener.getsockname()[1]))
            return True
        if op == "mesh":
            _op, generation, endpoints = message
            if self._pending_form is None or self._pending_form[0] != generation:
                send(
                    (
                        "mesh-error",
                        self.agent_id,
                        f"mesh for generation {generation} without a "
                        f"matching form (pending: {self._pending_form})",
                    )
                )
                return True
            _gen, rank, size, recv_timeout_s, heartbeat_s = self._pending_form
            self._pending_form = None
            try:
                transport = TcpTransport(
                    rank,
                    size,
                    endpoints,
                    self._data_listener,
                    clock=self.clock,
                )
                self.comm = Communicator(
                    transport,
                    recv_timeout_s=recv_timeout_s,
                    heartbeat_s=heartbeat_s,
                    clock=self.clock,
                )
            except ReproError as exc:
                self.teardown_mesh()
                send(("mesh-error", self.agent_id, str(exc)))
                return True
            self.rank = rank
            self.generation = int(generation)
            send(("ready", self.generation, self.rank))
            return True
        if op == "job":
            job: PoolJob = message[1]
            try:
                # GEN001: every path into execute_job fences first
                fence_generation(job.generation, self.generation)
                if self.comm is None:
                    raise ReproError(
                        f"agent {self.agent_id} has no formed mesh for "
                        f"job {job.job_id}"
                    )
                result, extras = execute_job(
                    self.comm,
                    job,
                    post=lambda kind, rank, blob: send((kind, rank, blob)),
                    abort=self._abort,
                    spectra=self.spectra,
                )
                send(("result", self.rank, result, extras))
            except StaleGenerationError as exc:
                send(("job-error", self.rank, str(exc), True))
            except ReproError as exc:
                # a mid-job transport/rank failure poisons the mesh: drop
                # it so the next formation starts clean
                rank = self.rank
                self.teardown_mesh()
                send(("job-error", rank, str(exc), False))
            return True
        if op == "shutdown":
            try:
                self.rendezvous.withdraw(self.agent_id)
            except ReproError:
                pass
            self.teardown_mesh()
            send(("bye", self.agent_id))
            return False
        send(("error", self.agent_id, f"unknown pool op {op!r}"))
        return True


def agent_main(
    rendezvous_url: str,
    host: str = "127.0.0.1",
    clock: Optional[Clock] = None,
) -> int:
    """Run one agent until a controller sends ``shutdown``.

    Publishes the card, then serves control connections one at a time —
    each until EOF, then back to ``accept``.  A controller disconnect is
    therefore not a death sentence; the agent (and its warm mesh) waits
    for the next one.
    """
    rendezvous = parse_rendezvous(rendezvous_url)
    agent = PoolAgent(rendezvous, host=host, clock=clock)
    control = Listener((host, 0), family="AF_INET")
    rendezvous.publish(agent.card(control.address[1]))
    alive = True
    try:
        while alive:
            try:
                conn = control.accept()
            except (OSError, EOFError):
                break
            try:
                alive = _serve_connection(agent, conn)
            finally:
                conn.close()
    finally:
        try:
            rendezvous.withdraw(agent.agent_id)
        except ReproError:
            pass
        agent.teardown_mesh()
        control.close()
    return 0


def _serve_connection(agent: PoolAgent, conn: Connection) -> bool:
    """Serve one controller connection until EOF or shutdown."""
    while True:
        try:
            message = conn.recv()
        except (OSError, EOFError):
            return True  # controller left; stay warm for the next one
        try:
            if not agent.handle(message, conn.send):
                return False
        except (OSError, BrokenPipeError):
            return True  # controller died mid-reply; stay warm


def spawn_local_agents(
    rendezvous_url: str,
    count: int,
    host: str = "127.0.0.1",
) -> List[multiprocessing.Process]:
    """Fork ``count`` agent processes joined to one rendezvous.

    The in-process spawn path used by tests, benchmarks, and
    ``RankPool.spawn`` — the CLI uses detached subprocesses instead so
    agents outlive the ``pool up`` command.
    """
    ctx = _mp_context()
    procs = []
    for _ in range(count):
        proc = ctx.Process(
            target=agent_main, args=(rendezvous_url, host), daemon=True
        )
        proc.start()
        procs.append(proc)
    return procs


def _mp_context():
    """Fork when available (fast, inherits the warm import state)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")
