"""Tests for the simulated communicator."""

import numpy as np
import pytest

from repro.cluster.comm import SimulatedComm, TrafficLedger
from repro.cluster.network import Link, Network
from repro.errors import CommunicationError, RankFailure
from repro.util.clock import ManualClock


class TestTrafficLedger:
    def test_records_rounds_and_bytes(self):
        ledger = TrafficLedger()
        ledger.record("alltoall", 100)
        ledger.record("alltoall", 50)
        ledger.record("bcast", 10)
        assert ledger.rounds_by_type["alltoall"] == 2
        assert ledger.bytes_by_type["alltoall"] == 150
        assert ledger.total_rounds == 3
        assert ledger.total_bytes == 160
        assert ledger.alltoall_rounds == 2


class TestAlltoall:
    def test_transpose_semantics(self, rng):
        comm = SimulatedComm(3)
        send = [[np.array([i * 10 + j]) for j in range(3)] for i in range(3)]
        recv = comm.alltoall(send)
        for j in range(3):
            for i in range(3):
                assert recv[j][i][0] == i * 10 + j

    def test_counts_one_round(self):
        comm = SimulatedComm(2)
        send = [[np.zeros(4)] * 2 for _ in range(2)]
        comm.alltoall(send)
        assert comm.ledger.alltoall_rounds == 1

    def test_offdiagonal_bytes_only(self):
        comm = SimulatedComm(2)
        send = [[np.zeros(4)] * 2 for _ in range(2)]
        comm.alltoall(send)
        # 2 off-diagonal messages of 32 bytes each
        assert comm.ledger.total_bytes == 64

    def test_charges_clock(self):
        clock = ManualClock()
        comm = SimulatedComm(4, clock=clock)
        comm.alltoall([[np.zeros(100)] * 4 for _ in range(4)])
        assert clock.category_total("comm") > 0

    def test_wrong_row_length_raises(self):
        comm = SimulatedComm(2)
        with pytest.raises(CommunicationError):
            comm.alltoall([[np.zeros(1)], [np.zeros(1), np.zeros(1)]])

    def test_wrong_participant_count_raises(self):
        comm = SimulatedComm(3)
        with pytest.raises(CommunicationError):
            comm.alltoall([[np.zeros(1)] * 3] * 2)

    @pytest.mark.parametrize("name", ["alltoall", "alltoallv"])
    def test_ragged_row_is_a_typed_error(self, name):
        """Both flavours validate row lengths before touching an entry
        (a bare IndexError would hide which rank sent the short row)."""
        comm = SimulatedComm(3)
        send = [[np.zeros(1)] * 3, [np.zeros(1)] * 2, [np.zeros(1)] * 3]
        with pytest.raises(
            CommunicationError, match=f"rank 1 {name} row has 2 entries, expected 3"
        ):
            getattr(comm, name)(send)
        assert comm.ledger.total_rounds == 0

    def test_alltoallv_charges_largest_pair(self):
        """The one difference between the flavours besides the ledger key:
        ``alltoall`` is timed at the mean pair size, ``alltoallv`` at the max."""
        send = [[np.zeros(1), np.zeros(100)], [np.zeros(1), np.zeros(1)]]
        mean, largest = SimulatedComm(2), SimulatedComm(2)
        mean.alltoall(send)
        largest.alltoallv(send)
        assert mean.ledger.total_bytes == largest.ledger.total_bytes == 808
        assert largest.ledger.rounds_by_type == {"alltoallv": 1}
        assert mean.clock.now() == mean.network.alltoall_time(404)
        assert largest.clock.now() == largest.network.alltoall_time(800)


class TestOtherCollectives:
    def test_allgather(self):
        comm = SimulatedComm(3)
        out = comm.allgather([np.array([r]) for r in range(3)])
        for r in range(3):
            assert [int(a[0]) for a in out[r]] == [0, 1, 2]

    def test_gather_at_root(self):
        comm = SimulatedComm(3)
        out = comm.gather([np.array([r * r]) for r in range(3)], root=1)
        assert [int(a[0]) for a in out] == [0, 1, 4]

    def test_bcast_copies(self):
        comm = SimulatedComm(2)
        val = np.array([1.0, 2.0])
        out = comm.bcast(val)
        out[0][0] = 99
        assert val[0] == 1.0
        np.testing.assert_array_equal(out[1], [1.0, 2.0])

    def test_mismatched_network_raises(self):
        with pytest.raises(CommunicationError):
            SimulatedComm(4, network=Network(2, Link()))


class TestFailureInjection:
    def test_dead_rank_breaks_collectives(self):
        comm = SimulatedComm(2)
        comm.kill_rank(1)
        with pytest.raises(RankFailure):
            comm.allgather([np.zeros(1), np.zeros(1)])

    def test_kill_bad_rank(self):
        with pytest.raises(CommunicationError):
            SimulatedComm(2).kill_rank(5)
