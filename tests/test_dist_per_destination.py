"""The per-destination exchange: each peer receives only its cells' values.

A rank reconstructs only its own ``k^3`` boxes, so a field's owner sends
each peer the values of just the octree cells whose extent meets one of
that peer's boxes; the peer derives those cells from the configuration.
Generated over P in {1, 2, 3, 4}, both policies, both exchange modes and
two shapes on the ``local`` transport, every case checks:

- every assembled box is bitwise ``run_serial``'s;
- the value bytes the peers decoded equal the per-destination prediction
  exactly, and a brute-force count of cells against boxes agrees;
- every cell a rank decodes from a peer meets one of that rank's boxes.

Recovery at ``before_exchange`` and ``mid_window`` stays bitwise.  A
hostile frame — a sub-domain its sender does not own, one twice, one
outside the grid, one none of whose cells the receiver needs, a value
count or value section that disagrees with the derived cells — fails the
receiving rank with a typed error naming the entry's offset; the process
and the job survive it.
"""

from __future__ import annotations

import dataclasses
import itertools
import struct
import threading

import numpy as np
import pytest

from repro.core.accumulate import cells_touching_rank
from repro.core.decomposition import DomainDecomposition
from repro.core import policy as policy_module
from repro.core.policy import SamplingPolicy, parse_policy
from repro.dist import worker
from repro.dist.collectives import Communicator
from repro.dist.inputs import default_spectrum
from repro.dist.launcher import dist_run
from repro.dist.worker import DistConfig, build_pipeline, composite_field
from repro.errors import ExchangeFrameError
from repro.octree.cell import samples_per_axis
from repro.util.lru import WeightedLRU

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
    merge, each frame decoded a second time into a dict of its own."""
    seen = []
    merge = worker.merge_exchanged

    def spy(merged, payload, config, *, src, rank):
        fields: dict = {}
        merge(fields, payload, config, src=src, rank=rank)
        seen.append((rank, src, fields))
        merge(merged, payload, config, src=src, rank=rank)

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
    needs 39.6% of the allgather's samples, and the frames carry only
    their values.  Each of the two frames adds an 8-byte entry count and
    a 16-byte (index, count) header per field (4 fields), and the
    transport a 20-byte frame header: 2 x (20 + 8 + 4 x 16) = 184 bytes
    over the prediction, so the wire reads 1.0005 of it.  The sample
    count, the Eq 6 result size and the exchange wire bytes are pinned
    exactly: a change to any of them is a change to the method or the
    wire format, never noise."""
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
    ) == (106_488, 891_264, 337_720)
    assert 1.0 <= report.wire_over_model <= 1.01


def test_warm_job_builds_no_pattern(monkeypatch):
    """Every pattern comes from the one process-wide table: the second
    identical job finds all of them there, on the driver (the exchange
    audit) and on every rank thread (its pipeline and the subsets it
    derives for its peers' frames), and stays bitwise ``run_serial``'s."""
    table = WeightedLRU(max_weight=1 << 30)
    monkeypatch.setattr(policy_module, "_PATTERNS", table)
    builds = []
    build = SamplingPolicy._build

    def spy(self, *args):
        builds.append(threading.current_thread() is threading.main_thread())
        return build(self, *args)

    monkeypatch.setattr(SamplingPolicy, "_build", spy)
    config = DistConfig(n=32, k=8, policy="banded", num_ranks=3, overlap=True)
    field = composite_field(config.n, config.seed)
    spectrum = default_spectrum(config)
    cold = dist_run(config, field=field, spectrum=spectrum)
    # the cold job's rank threads build every pattern once; the driver's
    # audit, which runs after them, finds all of them
    assert builds and not any(builds)
    assert table.misses == len(builds) == len(table)
    misses, cold_builds = table.misses, len(builds)
    warm = dist_run(config, field=field, spectrum=spectrum)
    assert (table.misses, len(builds)) == (misses, cold_builds)
    serial = build_pipeline(config, spectrum).run_serial(field)
    assert np.array_equal(cold.approx, serial.approx)
    assert np.array_equal(warm.approx, serial.approx)


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
    """A peer's frame may carry only sub-domains that peer owns, each
    once, each with exactly the values of the cells that touch the
    receiver's boxes: anything else is a typed failure of the receiving
    rank, raised before any array is sized from the frame."""

    CONFIG = DistConfig(n=32, k=8, num_ranks=2)

    @classmethod
    def _pairs(cls, indices, config=None):
        config = config or cls.CONFIG
        field, spectrum, serial = _serial(config)
        fields = dict((sub.index, f) for sub, f in serial.per_domain)
        decomp = DomainDecomposition(config.n, config.k)
        return [(decomp.subdomain(i), fields[i]) for i in indices]

    @classmethod
    def _frame(cls, indices, dst=0, config=None):
        """``indices``' fields as rank 1 would send them to ``dst``."""
        config = config or cls.CONFIG
        pairs = cls._pairs(indices, config)
        values = [worker.encode_values(f, config.precision) for _s, f in pairs]
        return worker.exchange_frame(pairs, values, config, dst).tobytes()

    @classmethod
    def _active(cls, owner):
        return [sub.index for sub, _f in _serial(cls.CONFIG)[2].per_domain if sub.index % 2 == owner]

    @classmethod
    def _values(cls, index, rank=0):
        """Values rank ``rank`` needs of sub-domain ``index``'s field."""
        (_sub, f), = cls._pairs([index])
        return cells_touching_rank(f.pattern, cls.CONFIG.k, 2, rank).sample_count

    def _rejects(self, frame, match, offset, merged=None, config=None):
        with pytest.raises(ExchangeFrameError, match=match) as err:
            worker.merge_exchanged(
                {} if merged is None else merged, frame, config or self.CONFIG, src=1, rank=0
            )
        assert err.value.offset == offset

    def test_foreign_index_is_rejected_with_its_offset(self):
        mine, theirs = self._active(1)[0], self._active(0)[0]
        frame = self._frame([mine, theirs])
        # the second entry starts after the entry count, the first entry's
        # header and its values
        second = 8 + 16 + 8 * self._values(mine)
        self._rejects(frame, f"sub-domain {theirs}, owned by rank 0", second)

    def test_repeated_index_is_rejected(self):
        frame = self._frame([self._active(1)[0]])
        merged: dict = {}
        worker.merge_exchanged(merged, frame, self.CONFIG, src=1, rank=0)
        self._rejects(frame, "already arrived", 8, merged)  # the first entry

    def test_index_outside_the_grid_is_rejected(self):
        frame = bytearray(self._frame([self._active(1)[0]]))
        struct.pack_into("<q", frame, 8, 65)  # (32 / 8)^3 = 64 sub-domains
        self._rejects(bytes(frame), r"sub-domain 65, outside \[0, 64\)", 8)

    def test_declared_count_must_match_the_derived_cells(self):
        index = self._active(1)[0]
        frame = bytearray(self._frame([index]))
        declared = self._values(index) - 1
        struct.pack_into("<q", frame, 16, declared)
        self._rejects(bytes(frame), f"declared {declared} values for sub-domain {index}", 8)
        # a count no frame could hold is rejected the same way, before
        # anything is sized from it
        struct.pack_into("<q", frame, 16, 1 << 62)
        self._rejects(bytes(frame), f"declared {1 << 62} values", 8)

    def test_truncated_value_section_is_rejected(self):
        index = self._active(1)[0]
        frame = self._frame([index])
        self._rejects(frame[:-8], f"value bytes for sub-domain {index}", 8)
        self._rejects(frame[:20], "truncated entry header", 8)
        self._rejects(frame[:4], "shorter than its 8-byte entry count", 0)

    def test_entry_for_cells_the_receiver_does_not_need_is_rejected(self):
        """n=16 / k=8 has 8 sub-domains, so at P=9 rank 8 owns no box and
        needs no cell of any field: a sender never gives it an entry, and a
        frame that does is rejected, whatever its count."""
        config = DistConfig(n=16, k=8, num_ranks=9)
        pattern = parse_policy(config.policy).pattern_for(16, 8, (0, 0, 8))
        assert not cells_touching_rank(pattern, 8, 9, 8).num_cells
        frame = struct.pack("<qqq", 1, 1, 0)
        with pytest.raises(ExchangeFrameError, match="none of whose cells touch rank 8") as err:
            worker.merge_exchanged({}, frame, config, src=1, rank=8)
        assert err.value.offset == 8

    def test_float32_frame_sized_for_float64_is_rejected(self):
        """A float32 receiver reads half the value bytes a float64 sender
        wrote, so the frame ends with bytes its entries do not account
        for."""
        index = self._active(1)[0]
        frame = self._frame([index])
        as_float32 = dataclasses.replace(self.CONFIG, precision="float32")
        after = 8 + 16 + 4 * self._values(index)
        self._rejects(frame, f"ends after 1 with {len(frame) - after} bytes left", after, config=as_float32)

    def test_forged_frame_fails_the_rank_not_the_process(self, monkeypatch):
        """Rank 1 forges its exchange frame to rank 0 with a sub-domain
        rank 0 owns.  Rank 0 fails with the typed error; the driver
        recovers from the posted checkpoints and the job stays bitwise."""
        config = self.CONFIG
        field, spectrum, serial = _serial(config)
        forged = self._frame([self._active(0)[0]])
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
