"""All-to-all rounds on the wire: how the one communication stack counts
the transposes of the FFT baselines, and what the alpha-beta model reads
off those counts."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster.network import Link
from repro.dist.collectives import Communicator
from repro.dist.ledger import CATEGORY_BCAST, CATEGORY_EXCHANGE, alltoall_rounds
from repro.dist.traditional import FftGrid, fftn, swap_axes
from repro.dist.transport import LocalFabric
from repro.dist.wire import HEADER_BYTES
from repro.errors import CommunicationError, RankFailure


def _run(size, fn):
    """``fn(comm)`` on ``size`` loopback ranks; returns (results, ledgers)."""
    fabric = LocalFabric(size)
    comms = [
        Communicator(fabric.endpoint(r), recv_timeout_s=5.0) for r in range(size)
    ]
    with ThreadPoolExecutor(max_workers=size) as pool:
        results = [f.result(timeout=30) for f in [pool.submit(fn, c) for c in comms]]
    return results, [c.transport.ledger.snapshot() for c in comms]


class TestAlltoall:
    def test_transpose_semantics(self):
        """One axis swap turns x-slabs into y-slabs of the same array."""
        n, p = 6, 3
        field = np.arange(n**3, dtype=np.float64).reshape(n, n, n)
        s = n // p

        def run(comm):
            xslab = field[comm.rank * s : (comm.rank + 1) * s]
            return swap_axes(comm, xslab, split=1, concat=0, group=range(p))

        yslabs, _ledgers = _run(p, run)
        for rank, block in enumerate(yslabs):
            assert np.array_equal(block, field[:, rank * s : (rank + 1) * s])

    def test_counts_one_round(self):
        """One all-to-all is P - 1 sent frames on every rank, an empty
        frame to a peer outside the swap group included."""
        def run(comm):
            return swap_axes(comm, np.zeros((2, 4)), split=1, concat=1, group=[comm.rank])

        _out, ledgers = _run(3, run)
        assert alltoall_rounds(ledgers) == 1
        for ledger in ledgers:
            assert ledger["counters"]["sent.data.frames"] == 2

    def test_offdiagonal_bytes_only(self):
        """A rank's own slot never reaches the wire."""
        def run(comm):
            return comm.alltoall([b"x" * 32] * 2)

        _out, ledgers = _run(2, run)
        for ledger in ledgers:
            assert ledger["counters"]["sent.data.bytes"] == 32 + HEADER_BYTES

    def test_charges_clock(self):
        """The alpha-beta time of a round is Eq 2 over the frames a rank
        sent: ``alpha * (P - 1) + beta * bytes``."""
        link = Link(alpha_s=1e-6, bandwidth_bytes_per_s=1e9)

        def run(comm):
            return comm.alltoall([b"y" * 100] * 4)

        _out, ledgers = _run(4, run)
        for ledger in ledgers:
            assert link.ledger_time(ledger, "data") == pytest.approx(
                3e-6 + 3 * (100 + HEADER_BYTES) * 1e-9, rel=1e-12
            )
            assert link.ledger_time(ledger, CATEGORY_EXCHANGE) == 0.0

    def test_wrong_row_length_raises(self):
        """A rank's row of payloads needs exactly one entry per rank: an
        extra entry is rejected before anything is sent."""
        comm = Communicator(LocalFabric(3).endpoint(0), recv_timeout_s=1.0)
        with pytest.raises(CommunicationError, match="one payload per rank"):
            comm.alltoall([b""] * 4)
        assert comm.transport.ledger.snapshot()["counters"] == {}

    def test_wrong_participant_count_raises(self):
        """A transform laid out for 4 ranks cannot run on a 1-rank
        communicator: its first swap names a rank that does not exist."""
        comm = Communicator(LocalFabric(1).endpoint(0), recv_timeout_s=1.0)
        grid = FftGrid.for_ranks(8, 4, "pencil")
        with pytest.raises(CommunicationError, match=r"swap group \[0, 1\]"):
            fftn(comm, grid, np.zeros((4, 4, 8)))


class TestOtherCollectives:
    def test_allgather(self):
        """The sparse exchange is the same swap under its own category:
        one exchange round, zero all-to-all rounds (Fig 1(b))."""
        def run(comm):
            return comm.sparse_allgather([bytes([comm.rank])] * 3)

        out, ledgers = _run(3, run)
        for rank in range(3):
            assert out[rank] == [b"\x00", b"\x01", b"\x02"]
        assert alltoall_rounds(ledgers, CATEGORY_EXCHANGE) == 1
        assert alltoall_rounds(ledgers) == 0

    def test_bcast_copies(self):
        """Input distribution is not a round: only the root sends, under
        ``bcast``, and every rank gets its own copy of the payload."""
        def run(comm):
            return bytes(comm.broadcast(b"abc" if comm.rank == 0 else None))

        out, ledgers = _run(3, run)
        assert out == [b"abc"] * 3
        assert ledgers[0]["counters"]["sent.bcast.frames"] == 2
        assert all(f"sent.{CATEGORY_BCAST}.frames" not in ledger["counters"]
                   for ledger in ledgers[1:])
        with pytest.raises(CommunicationError, match="disagree"):
            alltoall_rounds(ledgers, CATEGORY_BCAST)


class TestFailureInjection:
    def test_dead_rank_breaks_collectives(self):
        """A killed rank breaks a transpose on every surviving rank."""
        fabric = LocalFabric(3)
        fabric.kill(2)

        def run(comm):
            if comm.rank == 2:
                return None
            with pytest.raises(RankFailure):
                swap_axes(comm, np.zeros((3, 3)), split=0, concat=0, group=range(3))
            return True

        comms = [Communicator(fabric.endpoint(r), recv_timeout_s=5.0) for r in range(2)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(run, comms, timeout=30)) == [True, True]

    def test_kill_bad_rank(self):
        with pytest.raises(CommunicationError, match="out of range"):
            LocalFabric(2).kill(5)
