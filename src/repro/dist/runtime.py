"""Rank launch + bootstrap: turning a :class:`DistConfig` into live ranks.

Two execution substrates behind one entry point, :func:`run_spmd`:

- ``local`` — each rank is a thread over a shared
  :class:`~repro.dist.transport.LocalFabric`.  Deterministic, fast, and
  the substrate for fault-injection tests (a "crash" is a fabric kill).
- ``tcp`` — each rank is a real OS process speaking
  :class:`~repro.dist.tcp.TcpTransport` over localhost sockets.
  Bootstrap is race-free: every child binds port 0 (the OS picks), sends
  its port to the driver over a :mod:`multiprocessing` pipe, and the
  driver distributes the complete port map before any rank dials.

Either way the driver ends up with a :class:`SpmdOutcome`: per-rank
results, per-rank checkpoint blobs (posted *before* the exchange — the
fault-tolerance state), and a record of which ranks failed and why.  The
driver never aborts on a rank failure; deciding how to recover is the
launcher's job.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

import numpy as np

from repro.dist.collectives import Communicator
from repro.dist.tcp import TcpTransport
from repro.dist.transport import LocalFabric
from repro.dist.worker import DistConfig, RankResult, rank_main
from repro.errors import TransportError
from repro.util import copytrack

#: Wall-clock backstop for a whole SPMD run (bootstrap + compute + exchange).
RUN_DEADLINE_S = 120.0


@dataclass
class SpmdOutcome:
    """Everything the driver collected from one SPMD run."""

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

    @property
    def clean(self) -> bool:
        """True when every rank returned a result."""
        return not self.failures

    def all_checkpoint_blobs(self) -> List[bytes]:
        """Every posted checkpoint blob, whole-run and per-chunk alike."""
        blobs = list(self.checkpoints.values())
        for chunks in self.chunk_checkpoints.values():
            blobs.extend(chunks)
        return blobs


def run_spmd(
    config: DistConfig, field: np.ndarray, spectrum: Optional[np.ndarray]
) -> SpmdOutcome:
    """Run the full SPMD job on the configured transport (``spectrum=None``
    is the default kernel of ``config``, evaluated rank-side)."""
    if config.transport == "tcp":
        return _run_tcp(config, field, spectrum)
    return _run_local(config, field, spectrum)


class _InjectedCrash(Exception):
    """Unwinds a thread-rank simulating a crash (never escapes the runtime)."""


def _run_local(
    config: DistConfig, field: np.ndarray, spectrum: Optional[np.ndarray]
) -> SpmdOutcome:
    fabric = LocalFabric(config.num_ranks)
    outcome = SpmdOutcome()
    lock = threading.Lock()

    def post(kind: str, rank: int, payload: bytes) -> None:
        with lock:
            if kind == "checkpoint":
                outcome.checkpoints[rank] = payload
            elif kind == "chunk":
                outcome.chunk_checkpoints.setdefault(rank, []).append(payload)

    def run_rank(rank: int) -> None:
        comm = Communicator(
            fabric.endpoint(rank),
            recv_timeout_s=config.recv_timeout_s,
            heartbeat_s=config.heartbeat_s,
        )

        def abort() -> None:
            fabric.kill(rank)
            raise _InjectedCrash()

        try:
            result = rank_main(
                comm,
                config,
                field=field if rank == 0 else None,
                spectrum=spectrum if rank == 0 else None,
                post=post,
                abort=abort,
            )
            with lock:
                outcome.results[rank] = result
            comm.close()
        except _InjectedCrash:
            with lock:
                outcome.failures[rank] = "injected crash"
        except Exception as exc:  # noqa: BLE001  # repro-lint: broad-except-ok(driver boundary: failure recorded in outcome, launcher decides recovery)
            with lock:
                outcome.failures[rank] = f"{type(exc).__name__}: {exc}"

    threads = [
        threading.Thread(target=run_rank, args=(rank,), daemon=True)
        for rank in range(config.num_ranks)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + RUN_DEADLINE_S
    for rank, t in enumerate(threads):
        t.join(timeout=max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            with lock:
                outcome.failures.setdefault(rank, "rank thread hung past deadline")
    return outcome


def _tcp_child(
    rank: int,
    config: DistConfig,
    conn,
    field: Optional[np.ndarray],
    spectrum: Optional[np.ndarray],
) -> None:
    """Child-process body for one TCP rank (communicates via ``conn``)."""
    try:
        # a forked child inherits the parent's copy counters; zero them so
        # RankResult.copies is exactly this rank's work
        copytrack.reset()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(config.num_ranks)
        conn.send(("port", rank, listener.getsockname()[1]))
        kind, _src, ports = conn.recv()
        if kind != "ports":
            raise TransportError(f"rank {rank}: bad bootstrap message {kind!r}")
        transport = TcpTransport(rank, config.num_ranks, ports, listener)
        comm = Communicator(
            transport,
            recv_timeout_s=config.recv_timeout_s,
            heartbeat_s=config.heartbeat_s,
        )

        def post(k: str, r: int, payload: bytes) -> None:
            conn.send((k, r, payload))

        result = rank_main(
            comm,
            config,
            field=field,
            spectrum=spectrum,
            post=post,
            abort=lambda: os._exit(1),
        )
        comm.close()
        conn.send(("result", rank, result))
        conn.close()
    except Exception as exc:  # noqa: BLE001  # repro-lint: broad-except-ok(driver boundary: error shipped over the bootstrap pipe, driver decides)
        try:
            conn.send(("error", rank, f"{type(exc).__name__}: {exc}"))
            conn.close()
        except (OSError, ValueError, EOFError):
            # Pipe already torn down: the driver sees EOF instead.
            pass
        os._exit(1)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _run_tcp(
    config: DistConfig, field: np.ndarray, spectrum: Optional[np.ndarray]
) -> SpmdOutcome:
    ctx = _mp_context()
    conns = []
    procs = []
    for rank in range(config.num_ranks):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_tcp_child,
            args=(
                rank,
                config,
                child_conn,
                field if rank == 0 else None,
                spectrum if rank == 0 else None,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)

    outcome = SpmdOutcome()
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        # Bootstrap: gather every rank's port, then distribute the map.
        ports = [0] * config.num_ranks
        for rank, conn in enumerate(conns):
            if not conn.poll(max(0.0, deadline - time.monotonic())):
                raise TransportError(
                    f"rank {rank} never reported its port (bootstrap failed)"
                )
            kind, src, port = conn.recv()
            if kind != "port" or src != rank:
                raise TransportError(
                    f"bad bootstrap message from rank {rank}: {(kind, src)}"
                )
            ports[rank] = port
        for conn in conns:
            conn.send(("ports", -1, ports))

        # Event loop: drain checkpoint/result/error messages per rank.
        pending = set(range(config.num_ranks))
        while pending and time.monotonic() < deadline:
            for rank in sorted(pending):
                conn, proc = conns[rank], procs[rank]
                try:
                    if conn.poll(0.02):
                        kind, src, payload = conn.recv()
                        if kind == "checkpoint":
                            outcome.checkpoints[src] = payload
                        elif kind == "chunk":
                            outcome.chunk_checkpoints.setdefault(src, []).append(
                                payload
                            )
                        elif kind == "result":
                            outcome.results[src] = payload
                            pending.discard(rank)
                        elif kind == "error":
                            outcome.failures[src] = payload
                            pending.discard(rank)
                        continue
                except (EOFError, OSError):
                    outcome.failures[rank] = "rank process closed its pipe"
                    pending.discard(rank)
                    continue
                if not proc.is_alive() and not conn.poll(0):
                    outcome.failures[rank] = (
                        f"rank process exited with code {proc.exitcode} "
                        "before returning a result"
                    )
                    pending.discard(rank)
        for rank in sorted(pending):
            outcome.failures[rank] = "rank timed out past the run deadline"
    finally:
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in conns:
            conn.close()
    return outcome
