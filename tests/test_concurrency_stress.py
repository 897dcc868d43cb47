"""Concurrency stress: real serve/dist paths under the runtime lock watcher.

These tests build the actual systems under test *inside* a
:func:`~repro.analysis.lockwatch.lockwatch` block — so every lock the
batching server, the in-process rank fabric, and the TCP transport
create is instrumented — then drive them from multiple threads with
barrier-synchronized starts (every round releases all threads at once,
letting the OS scheduler pick a fresh interleaving).  The acceptance
property is a clean dynamic lock graph: no acquisition-order cycles and
no blocking calls under a non-I/O lock, for any observed interleaving.

The final test injects a deliberate ABBA inversion into the same harness
and asserts the watcher convicts it with a usable witness — proving the
clean runs above are meaningful, not vacuous.
"""

import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.lockwatch import lockwatch
from repro.dist.collectives import Communicator
from repro.dist.tcp import TcpTransport
from repro.dist.transport import LocalFabric
from repro.errors import ConcurrencyViolation
from repro.kernels.gaussian import GaussianKernel
from repro.serve import ConvolutionServer, ServerConfig
from repro.util.clock import ManualClock

N, K = 16, 4
ROUNDS = 3


def _join_all(threads, timeout=30):
    for t in threads:
        t.join(timeout=timeout)
        assert not t.is_alive(), f"thread {t.name} wedged past deadline"


class TestServeUnderLockwatch:
    def test_batched_serving_lock_graph_is_clean(self, rng):
        spectrum = GaussianKernel(n=N, sigma=1.5).spectrum()
        fields = [rng.standard_normal((N, N, N)) for _ in range(8)]
        with lockwatch() as watcher:
            server = ConvolutionServer(
                ServerConfig(n=N, k=K, max_batch_size=4, max_wait_s=0.05),
                clock=ManualClock(),
            )
            server.register_kernel("g", spectrum)
            for _round in range(ROUNDS):
                barrier = threading.Barrier(4)
                handles = [[] for _ in range(4)]

                def client(slot, barrier=barrier, handles=handles):
                    barrier.wait(timeout=10)
                    for field in fields[slot * 2 : slot * 2 + 2]:
                        handles[slot].append(
                            server.submit(field, kernel="g")
                        )

                threads = [
                    threading.Thread(
                        target=client, args=(i,), name=f"client-{i}"
                    )
                    for i in range(4)
                ]
                for t in threads:
                    t.start()
                _join_all(threads)
                server.drain()
                for slot in range(4):
                    for handle in handles[slot]:
                        assert handle.result(timeout=0).approx.shape == (
                            N, N, N,
                        )
        report = watcher.report()
        assert report.cycles == [], report.witness()
        assert report.blocking == [], report.witness()
        report.check()


class TestLocalFabricUnderLockwatch:
    def test_four_rank_sparse_exchange_is_clean(self):
        with lockwatch() as watcher:
            fabric = LocalFabric(4)
            comms = [
                Communicator(fabric.endpoint(r), recv_timeout_s=20)
                for r in range(4)
            ]
            for _round in range(ROUNDS):
                barrier = threading.Barrier(4)
                gathered = [None] * 4

                def rank_body(rank, barrier=barrier, gathered=gathered):
                    barrier.wait(timeout=10)
                    payload = bytes([rank]) * (rank + 1)
                    gathered[rank] = comms[rank].sparse_allgather(
                        [payload] * 4, tag=7
                    )

                threads = [
                    threading.Thread(
                        target=rank_body, args=(r,), name=f"rank-{r}"
                    )
                    for r in range(4)
                ]
                for t in threads:
                    t.start()
                _join_all(threads)
                for rank in range(4):
                    assert gathered[rank] == [
                        bytes([src]) * (src + 1) for src in range(4)
                    ]
            for comm in comms:
                comm.close()
        report = watcher.report()
        assert report.cycles == [], report.witness()
        assert report.blocking == [], report.witness()


class TestStreamedExchangeUnderLockwatch:
    """The overlap path adds a pump thread per rank (the bounded
    :class:`~repro.dist.transport.SendWindow`) that holds transport send
    locks while the rank's main thread keeps pushing — exactly the shape
    where an ordering cycle between queue, ledger, and mailbox locks
    would hide.  Drive it with uneven chunk counts per rank so the fast
    ranks' end markers race the slow ranks' mid-stream chunks."""

    def _expected(self, size):
        return [
            [bytes([src]) * 32] * (src + 1) for src in range(size)
        ]

    def _rank_body(self, comm, rank, barrier, gathered):
        barrier.wait(timeout=10)
        stream = comm.sparse_allgather_stream(tag=9, end_tag=11, window=2)
        for _chunk in range(rank + 1):  # uneven: rank r pushes r+1 chunks
            stream.push([bytes([rank]) * 32] * comm.size)
        gathered[rank] = stream.finish(timeout=20)

    def test_four_rank_streamed_exchange_is_clean(self):
        with lockwatch() as watcher:
            fabric = LocalFabric(4)
            comms = [
                Communicator(fabric.endpoint(r), recv_timeout_s=20)
                for r in range(4)
            ]
            for _round in range(ROUNDS):
                barrier = threading.Barrier(4)
                gathered = [None] * 4
                threads = [
                    threading.Thread(
                        target=self._rank_body,
                        args=(comms[r], r, barrier, gathered),
                        name=f"stream-rank-{r}",
                    )
                    for r in range(4)
                ]
                for t in threads:
                    t.start()
                _join_all(threads)
                for rank in range(4):
                    assert gathered[rank] == self._expected(4)
            for comm in comms:
                comm.close()
        report = watcher.report()
        assert report.cycles == [], report.witness()
        assert report.blocking == [], report.witness()

    def test_live_tcp_streamed_exchange_is_clean(self):
        with lockwatch() as watcher:
            listeners, ports = [], []
            for _ in range(2):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.bind(("127.0.0.1", 0))
                sock.listen(2)
                listeners.append(sock)
                ports.append(sock.getsockname()[1])
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(TcpTransport, rank, 2, ports, listeners[rank])
                    for rank in range(2)
                ]
                transports = [f.result(timeout=20) for f in futures]
            try:
                comms = [
                    Communicator(t, recv_timeout_s=20) for t in transports
                ]
                for _round in range(ROUNDS):
                    barrier = threading.Barrier(2)
                    gathered = [None] * 2
                    threads = [
                        threading.Thread(
                            target=self._rank_body,
                            args=(comms[r], r, barrier, gathered),
                            name=f"tcp-stream-rank-{r}",
                        )
                        for r in range(2)
                    ]
                    for t in threads:
                        t.start()
                    _join_all(threads)
                    for rank in range(2):
                        assert gathered[rank] == self._expected(2)
            finally:
                for t in transports:
                    t.close()
        report = watcher.report()
        assert report.cycles == [], report.witness()
        assert report.blocking == [], report.witness()


class TestTcpUnderLockwatch:
    def test_tcp_exchange_is_cycle_free(self):
        with lockwatch() as watcher:
            listeners, ports = [], []
            for _ in range(2):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.bind(("127.0.0.1", 0))
                sock.listen(2)
                listeners.append(sock)
                ports.append(sock.getsockname()[1])
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [
                    pool.submit(TcpTransport, rank, 2, ports, listeners[rank])
                    for rank in range(2)
                ]
                transports = [f.result(timeout=20) for f in futures]
            try:
                comms = [
                    Communicator(t, recv_timeout_s=20) for t in transports
                ]
                barrier = threading.Barrier(2)
                gathered = [None] * 2

                def rank_body(rank):
                    barrier.wait(timeout=10)
                    gathered[rank] = comms[rank].sparse_allgather(
                        [bytes([rank]) * 64] * 2, tag=3
                    )

                threads = [
                    threading.Thread(
                        target=rank_body, args=(r,), name=f"tcp-rank-{r}"
                    )
                    for r in range(2)
                ]
                for t in threads:
                    t.start()
                _join_all(threads)
                for rank in range(2):
                    assert gathered[rank] == [b"\x00" * 64, b"\x01" * 64]
            finally:
                for t in transports:
                    t.close()
        report = watcher.report()
        # the per-peer send locks are I/O-exempt by name, so a clean run
        # means: no ordering cycles, and no blocking under any state lock
        assert report.cycles == [], report.witness()
        assert report.blocking == [], report.witness()


class TestInjectedInversion:
    def test_inversion_inside_stress_harness_is_convicted(self):
        with lockwatch() as watcher:
            queue_lock = threading.Lock()
            state_lock = threading.Lock()
            inner_done = threading.Event()

            def drain_path():
                for _ in range(ROUNDS):
                    with queue_lock:
                        with state_lock:
                            pass

            def refill_path():
                for _ in range(ROUNDS):
                    with state_lock:
                        with queue_lock:
                            pass
                inner_done.set()

            threads = [
                threading.Thread(target=drain_path, name="drain"),
                threading.Thread(target=refill_path, name="refill"),
            ]
            # one after the other: the watcher convicts the opposite
            # acquisition orders from its graph, and run side by side the
            # two threads can really deadlock (and hang the suite at exit)
            for t in threads:
                t.start()
                _join_all([t])
            assert inner_done.wait(timeout=5)
        report = watcher.report()
        assert len(report.cycles) == 1
        with pytest.raises(ConcurrencyViolation) as exc:
            report.check()
        witness = exc.value.report.witness()
        assert "queue_lock" in witness and "state_lock" in witness
        assert "drain" in witness and "refill" in witness
        assert "CYCLE:" in witness
