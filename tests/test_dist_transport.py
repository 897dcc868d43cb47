"""Transport tests: loopback + TCP semantics, ledger accounting, faults.

The satellite fault matrix: a truncated frame and a dropped message are
*transport* errors (the peer may be alive); an abrupt stream end is a
*rank* failure.  Both transports must agree on that mapping.
"""

import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.dist.collectives import Communicator
from repro.dist.ledger import (
    CATEGORY_CONTROL,
    CATEGORY_DATA,
    CATEGORY_EXCHANGE,
    WireLedger,
    merge_wire_snapshots,
    sent_wire_bytes,
)
from repro.dist.tcp import TcpTransport
from repro.dist.transport import LocalFabric
from repro.dist.wire import HEADER_BYTES, Frame, FrameKind, encode_frame
from repro.errors import CommunicationError, RankFailure, TransportError


def counter(ledger, name):
    """One ``WireLedger`` counter, 0 when it was never incremented."""
    return ledger.snapshot()["counters"].get(name, 0)


class TestLocalTransport:
    def test_send_recv_roundtrip(self):
        fabric = LocalFabric(2)
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        a.send(1, Frame(FrameKind.DATA, 0, tag=5, payload=b"payload"))
        frame = b.recv(timeout=1.0)
        assert frame.src == 0 and frame.tag == 5 and frame.payload == b"payload"

    def test_ledger_counts_full_wire_bytes(self):
        fabric = LocalFabric(2)
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        frame = Frame(FrameKind.DATA, 0, 0, b"12345")
        a.send(1, frame, CATEGORY_EXCHANGE)
        b.recv(timeout=1.0, category=CATEGORY_EXCHANGE)
        assert counter(a.ledger, f"sent.{CATEGORY_EXCHANGE}.bytes") == HEADER_BYTES + 5
        assert counter(b.ledger, f"recv.{CATEGORY_EXCHANGE}.bytes") == HEADER_BYTES + 5
        assert counter(a.ledger, f"sent.{CATEGORY_EXCHANGE}.frames") == 1

    def test_recv_timeout_is_transport_error(self):
        fabric = LocalFabric(2)
        b = fabric.endpoint(1)
        with pytest.raises(TransportError, match="timed out"):
            b.recv(timeout=0.05)

    def test_dropped_message_times_out(self):
        fabric = LocalFabric(2)
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        fabric.drop_next(0, 1)
        a.send(1, Frame(FrameKind.DATA, 0, 0, b"lost"))
        with pytest.raises(TransportError, match="timed out"):
            b.recv(timeout=0.05)
        # only the next message is dropped; traffic then flows again
        a.send(1, Frame(FrameKind.DATA, 0, 0, b"kept"))
        assert b.recv(timeout=1.0).payload == b"kept"

    def test_killed_rank_raises_rank_failure(self):
        fabric = LocalFabric(2)
        b = fabric.endpoint(1)
        fabric.kill(0)
        with pytest.raises(RankFailure, match="rank 0"):
            b.recv(timeout=1.0)

    def test_dead_rank_cannot_send(self):
        fabric = LocalFabric(2)
        a = fabric.endpoint(0)
        fabric.kill(0)
        with pytest.raises(RankFailure):
            a.send(1, Frame(FrameKind.DATA, 0, 0))

    def test_bye_then_eof_is_graceful(self):
        fabric = LocalFabric(2)
        a, b = fabric.endpoint(0), fabric.endpoint(1)
        a.close()  # sends BYE
        assert b.recv(timeout=1.0).kind == FrameKind.BYE
        fabric.kill(0)
        # EOF after BYE is not a crash; the receiver just keeps waiting
        with pytest.raises(TransportError, match="timed out"):
            b.recv(timeout=0.05)

    def test_exchange_all_pairs(self):
        fabric = LocalFabric(3)
        comms = [Communicator(fabric.endpoint(r), recv_timeout_s=5.0) for r in range(3)]

        def run(rank):
            payloads = [f"{rank}->{dst}".encode() for dst in range(3)]
            return comms[rank].sparse_allgather(payloads, tag=7, category=CATEGORY_DATA)

        with ThreadPoolExecutor(max_workers=3) as pool:
            got = list(pool.map(run, range(3)))
        for rank, result in enumerate(got):
            assert result == [f"{src}->{rank}".encode() for src in range(3)]

    def test_self_send_rejected(self):
        fabric = LocalFabric(2)
        a = fabric.endpoint(0)
        with pytest.raises(CommunicationError, match="itself"):
            a.send(0, Frame(FrameKind.DATA, 0, 0))

    def test_peer_out_of_range(self):
        fabric = LocalFabric(2)
        a = fabric.endpoint(0)
        with pytest.raises(CommunicationError, match="out of range"):
            a.send(5, Frame(FrameKind.DATA, 0, 0))


def _tcp_mesh(size):
    """Build a live full-mesh of TcpTransports on localhost."""
    listeners = []
    ports = []
    for _ in range(size):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(size)
        listeners.append(sock)
        ports.append(sock.getsockname()[1])
    with ThreadPoolExecutor(max_workers=size) as pool:
        futures = [
            pool.submit(TcpTransport, rank, size, ports, listeners[rank])
            for rank in range(size)
        ]
        return [f.result(timeout=20) for f in futures]


@pytest.fixture
def tcp_pair():
    transports = _tcp_mesh(2)
    yield transports
    for t in transports:
        t.close()


class TestTcpTransport:
    def test_send_recv_over_socket(self, tcp_pair):
        a, b = tcp_pair
        a.send(1, Frame(FrameKind.DATA, 0, tag=3, payload=b"over tcp"))
        frame = b.recv(timeout=5.0)
        assert frame.src == 0 and frame.payload == b"over tcp"

    def test_ledger_counts_hello_handshake(self, tcp_pair):
        a, b = tcp_pair
        # mesh construction exchanged one HELLO (rank 1 dialed rank 0)
        assert counter(b.ledger, f"sent.{CATEGORY_CONTROL}.bytes") == HEADER_BYTES
        assert counter(a.ledger, f"recv.{CATEGORY_CONTROL}.bytes") == HEADER_BYTES

    def test_recv_timeout(self, tcp_pair):
        _a, b = tcp_pair
        with pytest.raises(TransportError, match="timed out"):
            b.recv(timeout=0.05)

    def test_truncated_frame_is_transport_error(self, tcp_pair):
        a, b = tcp_pair
        # write 60% of a frame straight to the socket, then slam it shut
        data = encode_frame(Frame(FrameKind.DATA, 0, 0, b"x" * 100))
        raw = a._peers[1]
        raw.sendall(data[: len(data) * 6 // 10])
        raw.close()
        with pytest.raises(TransportError, match="truncated at offset"):
            b.recv(timeout=5.0)

    def test_abrupt_close_is_rank_failure(self, tcp_pair):
        a, b = tcp_pair
        a._peers[1].close()  # no BYE: simulates a crash
        with pytest.raises(RankFailure, match="rank 0"):
            b.recv(timeout=5.0)

    def test_bye_then_close_is_graceful(self, tcp_pair):
        a, b = tcp_pair
        a.close()
        assert b.recv(timeout=5.0).kind == FrameKind.BYE
        with pytest.raises(TransportError, match="timed out"):
            b.recv(timeout=0.05)

    def test_exchange_large_payloads_no_deadlock(self):
        # bigger than typical kernel socket buffers: the pumped-send
        # exchange must not deadlock on everyone sending first
        transports = _tcp_mesh(3)
        try:
            payload = b"\xab" * (1 << 20)

            def run(rank):
                comm = Communicator(transports[rank], recv_timeout_s=30.0)
                return comm.sparse_allgather([payload] * 3, tag=1)

            with ThreadPoolExecutor(max_workers=3) as pool:
                results = list(pool.map(run, range(3)))
            for got in results:
                assert len(got) == 3
                assert all(p == payload for p in got)
        finally:
            for t in transports:
                t.close()

    def test_killed_peer_mid_exchange(self):
        transports = _tcp_mesh(2)
        try:
            a, b = transports
            # rank 0 dies without sending its exchange payload
            for sock in a._peers.values():
                sock.close()
            with pytest.raises(RankFailure):
                Communicator(b, recv_timeout_s=5.0).sparse_allgather([b"mine"] * 2, tag=1)
        finally:
            for t in transports:
                t.close()


class TestWireLedger:
    def test_category_totals(self):
        ledger = WireLedger()
        ledger.record_send("exchange", 100)
        ledger.record_send("exchange", 50)
        ledger.record_send("bcast", 10)
        ledger.record_recv("exchange", 100)
        assert counter(ledger, "sent.exchange.bytes") == 150
        assert sent_wire_bytes(ledger.snapshot()["counters"]) == 160
        assert counter(ledger, "recv.exchange.bytes") == 100
        assert counter(ledger, "sent.exchange.frames") == 2

    def test_snapshot_shape_matches_serve_metrics(self):
        ledger = WireLedger()
        ledger.record_send("data", 42)
        snap = ledger.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]["sent.data.bytes"] == 42
        assert snap["histograms"]["frame.bytes"]["count"] == 1

    def test_merge_wire_snapshots(self):
        a, b = WireLedger(), WireLedger()
        a.record_send("exchange", 100)
        b.record_send("exchange", 200)
        b.record_recv("exchange", 100)
        totals = merge_wire_snapshots([a.snapshot(), b.snapshot()])
        assert totals["sent.exchange.bytes"] == 300
        assert totals["recv.exchange.bytes"] == 100


def test_local_fabric_rejects_bad_size():
    with pytest.raises(CommunicationError):
        LocalFabric(0)


def test_heartbeats_are_skipped_by_exchange():
    fabric = LocalFabric(2)
    a, b = fabric.endpoint(0), fabric.endpoint(1)
    a.send(1, Frame(FrameKind.HEARTBEAT, 0, 0))
    a.send(1, Frame(FrameKind.DATA, 0, 1, b"real"))

    done = {}

    def run_b():
        done["got"] = Communicator(b, recv_timeout_s=5.0).sparse_allgather([b"back"] * 2, tag=1)

    t = threading.Thread(target=run_b)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    assert done["got"] == [b"real", b"back"]
