"""The rank process: a control loop serving jobs on a formed mesh.

One rank process is one thing, however it was launched: it obeys a
driver over a control :class:`~multiprocessing.connection.Connection`,
forms a :class:`~repro.dist.tcp.TcpTransport` mesh with its peers when
told to, and runs the jobs it is handed on that mesh.  A cold
``dist_run(transport="tcp")`` rank is a forked child reached over its
``Pipe`` end that serves one job; a standing pool agent
(:class:`repro.pool.agent.PoolAgent`) is the same machine behind a
rendezvous ``Listener``, serving a stream of them.  The messages:

``ping``
    Liveness + status probe; answers identity, generation, seated rank.
``form (generation, rank, size, recv_timeout_s, heartbeat_s)``
    Tear down any old mesh, bind a fresh data listener, answer its port.
    Formation is two-phase because no rank can dial peers before every
    peer has a listening port.
``mesh (generation, endpoints)``
    Dial the full mesh (:class:`~repro.dist.tcp.TcpTransport` with the
    backoff dialer — ranks reach this step at different times) and
    stand up a :class:`~repro.dist.collectives.Communicator` on it.  The
    ``ready`` reply lists the kernel keys the agent's spectrum table
    holds, so a driver that has never seen this agent ships it only the
    kernels it lacks.
``job (PoolJob)``
    Fence the job's generation against the rank's own, then run
    :func:`~repro.dist.jobs.execute_job` on the formed communicator.
    Checkpoint/chunk posts stream back over the same control connection
    before the final result — the driver's fault-tolerance mailbox.
``shutdown``
    Tear down, exit the serve loop.

The driver half of each exchange is :mod:`repro.dist.runtime`.
"""

from __future__ import annotations

import os
import socket
from multiprocessing.connection import Connection
from typing import Callable, Optional, Tuple

from repro.dist.collectives import Communicator
from repro.dist.inputs import SPECTRUM_TABLE_BYTES
from repro.dist.jobs import PoolJob, execute_job, fence_generation
from repro.dist.tcp import TcpTransport
from repro.errors import ReproError, StaleGenerationError
from repro.util.clock import Clock, MonotonicClock
from repro.util.lru import WeightedLRU

__all__ = ["RankAgent", "serve_connection"]


class RankAgent:
    """The rank's state machine, separated from how messages reach it.

    ``handle(message, send)`` processes one control message and returns
    ``False`` exactly once — on shutdown.  Keeping the machine free of
    sockets makes every transition (including generation fencing and
    mesh teardown) testable in-process.
    """

    def __init__(
        self,
        agent_id: str,
        host: str = "127.0.0.1",
        clock: Optional[Clock] = None,
        abort: Optional[Callable[[], None]] = None,
    ):
        self.agent_id = agent_id
        self.host = host
        self.clock = clock if clock is not None else MonotonicClock()
        # abort must leave no chance of a half-written result reaching the
        # driver; a dedicated rank process dies outright
        self._abort = abort if abort is not None else lambda: os._exit(1)
        self.generation = 0
        self.rank = -1
        self.comm: Optional[Communicator] = None
        #: kernel spectra this agent has been sent, by content key; it
        #: outlives jobs and meshes like the process's plan table does
        self.spectra: WeightedLRU = WeightedLRU(SPECTRUM_TABLE_BYTES)
        #: warm pipelines by (spectrum key, shape), bounded the same way
        #: (:func:`~repro.dist.worker.warm_pipeline`)
        self.pipelines: WeightedLRU = WeightedLRU(SPECTRUM_TABLE_BYTES)
        self._pending_form: Optional[
            Tuple[int, int, int, float, Optional[float]]
        ] = None
        self._data_listener = None

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
            keys = tuple(key for key, _spectrum in self.spectra.items())
            send(("ready", self.generation, self.rank, keys))
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
                result = execute_job(
                    self.comm,
                    job,
                    post=lambda kind, rank, blob: send((kind, rank, blob)),
                    abort=self._abort,
                    spectra=self.spectra,
                    pipelines=self.pipelines,
                )
                send(("result", self.rank, result))
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
            self.teardown_mesh()
            send(("bye", self.agent_id))
            return False
        send(("error", self.agent_id, f"unknown pool op {op!r}"))
        return True


def serve_connection(agent: RankAgent, conn: Connection) -> bool:
    """Serve one driver connection until EOF (``True``: the driver left,
    the rank is still good) or shutdown (``False``)."""
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
