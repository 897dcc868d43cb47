"""The per-destination exchange: each peer receives only its cells.

A rank reconstructs only its own ``k^3`` boxes, so a field's owner sends
each peer just the octree cells whose extent meets one of that peer's
boxes.  Generated over P in {1, 2, 3, 4}, both policies, both exchange
modes and two shapes on the ``local`` transport, every case checks:

- every assembled box is bitwise ``run_serial``'s;
- the value bytes the peers decoded equal the per-destination prediction
  exactly, and a brute-force count of cells against boxes agrees;
- every cell a rank decodes from a peer meets one of that rank's boxes.

Recovery at ``before_exchange`` and ``mid_window`` stays bitwise, and a
peer that sends a sub-domain it does not own, or one twice, fails the
receiving rank with a typed error naming the entry's offset — the
process and the job survive it.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.core.decomposition import DomainDecomposition
from repro.dist import worker
from repro.dist.collectives import Communicator
from repro.dist.inputs import default_spectrum
from repro.dist.launcher import dist_run
from repro.dist.worker import DistConfig, build_pipeline, composite_field
from repro.errors import ExchangeFrameError
from repro.octree.cell import samples_per_axis

SHAPES = [dict(n=32, k=8), dict(n=64, k=16)]
POLICIES = ["flat:2", "banded"]

_serial_memo: dict = {}


def _serial(config: DistConfig):
    key = (config.n, config.k, config.policy)
    if key not in _serial_memo:
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)
        _serial_memo[key] = field, spectrum, build_pipeline(config, spectrum).run_serial(field)
    return _serial_memo[key]


def _cells(pattern):
    """``(corner, edge, samples)`` per row of a pattern's table."""
    for (x, y, z, rate, _start), edge in zip(
        pattern.table.tolist(), pattern.cell_sizes().tolist()
    ):
        yield (x, y, z), edge, int(samples_per_axis(edge, rate)) ** 3


def _meets_rank(cell, k: int, m: int, size: int, rank: int) -> bool:
    """Brute force: does ``cell`` overlap any ``k^3`` box ``rank`` owns?"""
    corner, edge, _samples = cell
    spans = [range(c // k, (c + edge - 1) // k + 1) for c in corner]
    return any(
        ((ix * m + iy) * m + iz) % size == rank
        for ix, iy, iz in itertools.product(*spans)
    )


@pytest.fixture
def decoded(monkeypatch):
    """Every ``(receiving rank, source rank, {index: field})`` the ranks
    merge, decoded independently of the rank's own merge."""
    seen = []
    merge = worker.merge_exchanged

    def spy(merged, payload, *, src, rank, size):
        seen.append((rank, src, checkpoint_from_bytes(bytes(payload))))
        merge(merged, payload, src=src, rank=rank, size=size)

    monkeypatch.setattr(worker, "merge_exchanged", spy)
    return seen


@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("shape", SHAPES, ids=["n32", "n64"])
@pytest.mark.parametrize("ranks", [1, 2, 3, 4])
def test_peers_receive_exactly_their_cells(ranks, shape, policy, overlap, decoded):
    config = DistConfig(num_ranks=ranks, policy=policy, overlap=overlap, **shape)
    field, spectrum, serial = _serial(config)
    report = dist_run(config, field=field, spectrum=spectrum)
    assert report.failed_ranks == []
    assert np.array_equal(report.approx, serial.approx)

    k, m = config.k, config.n // config.k
    received = 0
    for rank, src, fields in decoded:
        if src == rank:
            continue
        for index, f in fields.items():
            assert index % ranks == src
            received += 8 * f.values.size
            for cell in _cells(f.pattern):
                assert _meets_rank(cell, k, m, ranks, rank), (rank, src, index)
    brute = sum(
        8 * cell[2]
        for sub, f in serial.per_domain
        for dst in range(ranks)
        if dst != sub.index % ranks
        for cell in _cells(f.pattern)
        if _meets_rank(cell, k, m, ranks, dst)
    )
    assert received == report.predicted_value_bytes == brute
    if ranks > 1:
        assert report.predicted_value_bytes < report.eq6_value_bytes


def test_pool_geometry_halves_the_exchange():
    """``pool_tcp_p2``'s geometry (n=64, k=16, banded, P=2): the peer
    needs 39.6% of the allgather's samples.  Metadata stays 24 B a cell,
    9.0% of the value bytes it now rides with (5.5% under the
    allgather), so the wire reads about 1.092 over the prediction.
    The sample count, the Eq 6 result size and the exchange wire bytes
    are pinned exactly: a change to any of them is a change to the
    method or the wire format, never noise."""
    config = DistConfig(n=64, k=16, policy="banded", num_ranks=2)
    field, spectrum, serial = _serial(config)
    report = dist_run(config, field=field, spectrum=spectrum)
    assert np.array_equal(report.approx, serial.approx)
    assert (report.predicted_value_bytes, report.eq6_value_bytes) == (
        8 * 42_192,
        8 * 106_488,
    )
    assert (
        serial.total_samples,
        serial.compressed_bytes,
        report.exchange_wire_bytes,
    ) == (106_488, 891_264, 368_648)
    assert 1.08 <= report.wire_over_model <= 1.10


@pytest.mark.parametrize(
    "stage, overlap", [("before_exchange", False), ("mid_window", True)]
)
def test_recovery_stays_bitwise(stage, overlap):
    config = DistConfig(
        n=32, k=8, policy="banded", num_ranks=3, overlap=overlap,
        fail_rank=1, fail_stage=stage,
    )
    field, spectrum, serial = _serial(config)
    report = dist_run(config, field=field, spectrum=spectrum)
    assert report.recovered and 1 in report.failed_ranks
    assert np.array_equal(report.approx, serial.approx)


class TestHostilePeer:
    """A peer's payload may carry only sub-domains that peer owns, each
    once: anything else is a typed failure of the receiving rank."""

    @staticmethod
    def _pairs(config, indices):
        field, spectrum, serial = _serial(config)
        fields = dict((sub.index, f) for sub, f in serial.per_domain)
        decomp = DomainDecomposition(config.n, config.k)
        return [(decomp.subdomain(i), fields[i]) for i in indices]

    def test_foreign_index_is_rejected_with_its_offset(self):
        config = DistConfig(n=32, k=8, num_ranks=2)
        active = [sub.index for sub, _f in _serial(config)[2].per_domain]
        mine, theirs = [i for i in active if i % 2 == 1][0], [i for i in active if i % 2 == 0][0]
        blob = checkpoint_to_bytes(self._pairs(config, [mine, theirs]))
        # the second record starts one entry header past the whole of a
        # one-entry blob (magic, count, entry header, first record)
        second = len(checkpoint_to_bytes(self._pairs(config, [mine]))) + 16
        with pytest.raises(ExchangeFrameError, match=f"sub-domain {theirs}, owned by rank 0") as err:
            worker.merge_exchanged({}, blob, src=1, rank=0, size=2)
        assert err.value.offset == second

    def test_repeated_index_is_rejected(self):
        config = DistConfig(n=32, k=8, num_ranks=2)
        index = [sub.index for sub, _f in _serial(config)[2].per_domain if sub.index % 2][0]
        blob = checkpoint_to_bytes(self._pairs(config, [index]))
        merged: dict = {}
        worker.merge_exchanged(merged, blob, src=1, rank=0, size=2)
        with pytest.raises(ExchangeFrameError, match="already arrived") as err:
            worker.merge_exchanged(merged, blob, src=1, rank=0, size=2)
        assert err.value.offset == 32  # the first record, after magic/count/entry header

    def test_forged_frame_fails_the_rank_not_the_process(self, monkeypatch):
        """Rank 1 forges its exchange frame to rank 0 with a sub-domain
        rank 0 owns.  Rank 0 fails with the typed error; the driver
        recovers from the posted checkpoints and the job stays bitwise."""
        config = DistConfig(n=32, k=8, num_ranks=2)
        field, spectrum, serial = _serial(config)
        forged = checkpoint_to_bytes(
            self._pairs(config, [next(sub.index for sub, _f in serial.per_domain if sub.index % 2 == 0)])
        )
        exchange = Communicator.sparse_allgather

        def forge(self, payloads, *args, **kwargs):
            if self.rank == 1:
                payloads = [forged] + list(payloads[1:])
            return exchange(self, payloads, *args, **kwargs)

        monkeypatch.setattr(Communicator, "sparse_allgather", forge)
        report = dist_run(config, field=field, spectrum=spectrum)
        assert report.failed_ranks == [0]
        assert report.recovered
        assert np.array_equal(report.approx, serial.approx)
