"""Communicator tests: collectives, tag matching, the receive loop,
heartbeat liveness."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dist.collectives import (
    TAG_EXCHANGE,
    TAG_EXCHANGE_END,
    Communicator,
)
from repro.dist.heartbeat import HeartbeatMonitor
from repro.dist.ledger import CATEGORY_EXCHANGE
from repro.dist.transport import LocalFabric
from repro.dist.wire import Frame, FrameKind, encode_frame
from repro.errors import CommunicationError, RankFailure, TransportError
from repro.util.clock import ManualClock
from tests.test_dist_transport import _tcp_mesh


def _communicators(size, **kwargs):
    fabric = LocalFabric(size)
    comms = [
        Communicator(fabric.endpoint(r), recv_timeout_s=5.0, **kwargs)
        for r in range(size)
    ]
    return fabric, comms


def _run_all(comms, fn, timeout=30):
    with ThreadPoolExecutor(max_workers=len(comms)) as pool:
        futures = [pool.submit(fn, comm) for comm in comms]
        return [f.result(timeout=timeout) for f in futures]


class TestPointToPoint:
    def test_tagged_send_recv(self):
        _fabric, (a, b) = _communicators(2)
        a.send_payload(1, b"x", tag=42)
        assert b.recv_payload(0, tag=42) == b"x"

    def test_out_of_order_tags_are_parked(self):
        _fabric, (a, b) = _communicators(2)
        a.send_payload(1, b"first", tag=1)
        a.send_payload(1, b"second", tag=2)
        # asking for tag 2 first parks the tag-1 frame for later
        assert b.recv_payload(0, tag=2) == b"second"
        assert b.recv_payload(0, tag=1) == b"first"

    def test_recv_timeout_typed(self):
        _fabric, (_a, b) = _communicators(2)
        with pytest.raises(TransportError, match="timed out"):
            b.recv_payload(0, tag=1, timeout=0.1)

    def test_bye_from_awaited_source_fails_promptly(self):
        # the broadcast root closed gracefully: nothing more will come
        _fabric, (a, b) = _communicators(2)
        b.close()
        t0 = time.monotonic()
        with pytest.raises(RankFailure, match="rank 1 said BYE"):
            a.recv_payload(1, tag=7, timeout=5.0)
        assert time.monotonic() - t0 < 1.0

    def test_rank_size_properties(self):
        _fabric, (a, b) = _communicators(2)
        assert (a.rank, a.size) == (0, 2)
        assert (b.rank, b.size) == (1, 2)


class TestCollectives:
    def test_broadcast(self):
        _fabric, comms = _communicators(3)

        def run(comm):
            payload = b"the field" if comm.rank == 0 else None
            return comm.broadcast(payload, root=0)

        assert _run_all(comms, run) == [b"the field"] * 3

    def test_broadcast_nonzero_root(self):
        _fabric, comms = _communicators(3)

        def run(comm):
            payload = b"from 2" if comm.rank == 2 else None
            return comm.broadcast(payload, root=2)

        assert _run_all(comms, run) == [b"from 2"] * 3

    def test_broadcast_root_needs_payload(self):
        _fabric, (a, _b) = _communicators(2)
        with pytest.raises(CommunicationError, match="payload"):
            a.broadcast(None, root=0)

    def test_broadcast_root_out_of_range(self):
        _fabric, (a, _b) = _communicators(2)
        with pytest.raises(CommunicationError, match="root"):
            a.broadcast(b"x", root=9)

    def test_sparse_allgather_indexed_by_rank(self):
        """Each peer receives the payload meant for it; the own slot comes
        back exactly as passed."""
        _fabric, comms = _communicators(4)

        def run(comm):
            return comm.sparse_allgather(
                [f"{comm.rank}->{dst}".encode() for dst in range(4)]
            )

        for rank, result in enumerate(_run_all(comms, run)):
            assert result == [f"{src}->{rank}".encode() for src in range(4)]

    def test_sparse_allgather_single_rank(self):
        _fabric, comms = _communicators(1)
        assert comms[0].sparse_allgather([b"alone"]) == [b"alone"]

    def test_sparse_allgather_counts_exchange_category(self):
        _fabric, comms = _communicators(2)

        def run(comm):
            return comm.sparse_allgather([b"p" * 100] * 2)

        _run_all(comms, run)
        for comm in comms:
            counters = comm.transport.ledger.snapshot()["counters"]
            assert counters["sent.exchange.bytes"] > 100

    def test_alltoall_distinct_payloads(self):
        _fabric, comms = _communicators(3)

        def run(comm):
            payloads = [f"{comm.rank}->{dst}".encode() for dst in range(3)]
            return comm.alltoall(payloads)

        results = _run_all(comms, run)
        for rank, got in enumerate(results):
            assert got == [f"{src}->{rank}".encode() for src in range(3)]

    def test_alltoall_wrong_arity(self):
        _fabric, (a, _b) = _communicators(2)
        with pytest.raises(CommunicationError, match="one payload per rank"):
            a.alltoall([b"only one"])

    def test_barrier_completes(self):
        _fabric, comms = _communicators(3)
        assert _run_all(comms, lambda c: c.barrier() or True) == [True] * 3

    def test_dead_peer_fails_allgather(self):
        fabric, comms = _communicators(3)
        fabric.kill(2)

        def run(comm):
            if comm.rank == 2:
                return None
            with pytest.raises(RankFailure):
                comm.sparse_allgather([b"x"] * 3)
            return True

        assert _run_all(comms[:2], run) == [True, True]


def _write_in_halves(sock, frame, then=(), gap_s=0.4):
    """Put ``frame`` on a raw socket in two writes ``gap_s`` apart — longer
    than the collectives' poll slice, far shorter than any deadline — and
    the ``then`` frames whole after it."""
    data = encode_frame(frame)
    sock.sendall(data[: len(data) // 2])
    time.sleep(gap_s)
    sock.sendall(data[len(data) // 2 :])
    for after in then:
        sock.sendall(encode_frame(after))


class TestReceiveLoop:
    """The one receive loop, against the ways a real socket misbehaves."""

    PAYLOAD = b"\xcd" * (1 << 20)

    @pytest.mark.parametrize("how", ["recv_payload", "sparse_allgather", "finish"])
    def test_frame_arriving_in_two_halves_is_delivered(self, how):
        # the poll slice bounds the wait for a frame to start, not the
        # frame: a payload still in flight when a slice ends is read on
        a, b = transports = _tcp_mesh(2)
        try:
            comm = Communicator(b, recv_timeout_s=5.0)
            chunk = Frame(FrameKind.DATA, 0, TAG_EXCHANGE, self.PAYLOAD)
            end = Frame(FrameKind.DATA, 0, TAG_EXCHANGE_END)
            writer = threading.Thread(
                target=_write_in_halves,
                args=(a._peers[1], chunk, [end] if how == "finish" else []),
            )
            writer.start()
            if how == "recv_payload":
                got = comm.recv_payload(0, tag=TAG_EXCHANGE)
            elif how == "sparse_allgather":
                got = comm.sparse_allgather([b"mine", b"mine"])[0]
            else:
                (got,) = comm.sparse_allgather_stream().finish()[0]
            writer.join(timeout=5)
            assert got == self.PAYLOAD
        finally:
            for t in transports:
                t.close()

    def test_garbage_header_surfaces_at_once(self):
        a, b = transports = _tcp_mesh(2)
        try:
            a._peers[1].sendall(b"not a frame header!!")
            t0 = time.monotonic()
            with pytest.raises(TransportError, match="bad frame magic .* at offset 0"):
                Communicator(b).recv_payload(0, tag=1, timeout=5.0)
            assert time.monotonic() - t0 < 1.0
            # the stream has no frame boundary left: the connection is gone
            assert 0 not in b._peers
        finally:
            for t in transports:
                t.close()

    @pytest.mark.parametrize("transport", ["local", "tcp"])
    def test_next_collective_frame_is_parked_not_dropped(self, transport):
        # rank 2 feeds collective A to rank 0 first and to rank 1 late, so
        # rank 0 finishes A and its collective-B frame reaches rank 1
        # while rank 1 still waits for A from rank 2
        tag_a, tag_b = 11, 12
        if transport == "tcp":
            transports = _tcp_mesh(3)
        else:
            fabric = LocalFabric(3)
            transports = [fabric.endpoint(r) for r in range(3)]
        comms = [Communicator(t, recv_timeout_s=5.0) for t in transports]

        def run(comm):
            mine = f"a{comm.rank}".encode()
            if comm.rank < 2:
                first = comm.sparse_allgather([mine] * 3, tag=tag_a)
            else:
                comm.send_payload(0, mine, tag_a, CATEGORY_EXCHANGE)
                time.sleep(0.3)
                comm.send_payload(1, mine, tag_a, CATEGORY_EXCHANGE)
                first = [
                    bytes(comm.recv_payload(0, tag_a)),
                    bytes(comm.recv_payload(1, tag_a)),
                    mine,
                ]
            second = comm.sparse_allgather([f"b{comm.rank}".encode()] * 3, tag=tag_b)
            return [bytes(p) for p in first], [bytes(p) for p in second]

        try:
            for first, second in _run_all(comms, run):
                assert first == [b"a0", b"a1", b"a2"]
                assert second == [b"b0", b"b1", b"b2"]
        finally:
            for comm in comms:
                comm.close()


class TestHeartbeatMonitor:
    def test_fresh_peers_not_overdue(self):
        clock = ManualClock()
        monitor = HeartbeatMonitor([1, 2], timeout_s=1.0, clock=clock)
        assert monitor.overdue() == []
        monitor.check()  # no raise

    def test_silent_peer_detected(self):
        clock = ManualClock()
        monitor = HeartbeatMonitor([1, 2], timeout_s=1.0, clock=clock)
        clock.advance(0.9)
        monitor.record(1)
        clock.advance(0.6)
        assert monitor.overdue() == [2]
        with pytest.raises(RankFailure, match=r"\[2\]"):
            monitor.check()

    def test_any_frame_counts_as_liveness(self):
        clock = ManualClock()
        monitor = HeartbeatMonitor([1], timeout_s=1.0, clock=clock)
        for _ in range(1, 10):
            clock.advance(0.8)
            monitor.record(1)
        assert monitor.overdue() == []

    def test_unknown_rank_recorded_harmlessly(self):
        clock = ManualClock()
        monitor = HeartbeatMonitor([1], timeout_s=1.0, clock=clock)
        monitor.record(99)  # not tracked; no KeyError
        assert monitor.overdue() == []


class TestHeartbeatIntegration:
    def test_sender_beacons_and_recv_stays_alive(self):
        _fabric, comms = _communicators(2, heartbeat_s=0.05)
        try:
            # rank 1 sends nothing for a while; rank 0's receive must see
            # heartbeats (consumed silently) and then the real payload
            result = {}

            def late_send():
                import time

                time.sleep(0.3)
                comms[1].send_payload(0, b"late", tag=9)

            t = threading.Thread(target=late_send)
            t.start()
            result["got"] = comms[0].recv_payload(1, tag=9, timeout=5.0)
            t.join(timeout=5)
            assert result["got"] == b"late"
            assert comms[0].monitor is not None
            assert comms[0].monitor.overdue() == []
        finally:
            for c in comms:
                c.close()

    def test_silence_is_judged_on_the_communicators_clock(self):
        # rank 1 never speaks; rank 0 blocks in a receive whose deadline
        # and heartbeat expiry both read the injected clock, so only
        # advancing that clock past 4 x heartbeat_s declares rank 1 dead
        heartbeat_s = 2.0
        clock = ManualClock()
        comm = Communicator(
            LocalFabric(2).endpoint(0),
            recv_timeout_s=60.0,
            heartbeat_s=heartbeat_s,
            clock=clock,
        )
        with ThreadPoolExecutor(max_workers=1) as pool:
            receive = pool.submit(comm.recv_payload, 1, 9)
            try:
                clock.advance(4 * heartbeat_s - 0.1)
                time.sleep(0.6)  # > two poll slices of the receive loop
                assert not receive.done()
                clock.advance(0.2)
                with pytest.raises(RankFailure, match=r"\[1\]"):
                    receive.result(timeout=5.0)
            finally:
                clock.advance(120.0)  # past the receive deadline: never hang
                comm.close()
