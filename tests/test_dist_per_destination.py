"""The per-destination exchange: each peer receives only its cells' values,
summed over the sender's fields before they are sent.

A rank reconstructs only its own ``k^3`` boxes, so a field's owner sends
each peer the values of just the octree cells whose extent meets one of
that peer's boxes, and where several of its fields hold a cell it sends
their sum: one entry per aligned subtree of its share that the frame
carries whole.  The peer derives the cells from the configuration.
Generated over P in {1, 2, 3, 4, 8}, both policies, both exchange modes
and two shapes on the ``local`` transport, every case checks:

- every assembled box is bitwise ``run_serial``'s;
- barrier frames at P = 2**p carry one entry, the sender's whole share,
  and every other frame one entry per field;
- the value bytes the peers decoded equal the per-destination prediction
  exactly, and a brute-force union of cells against boxes agrees;
- every cell a rank decodes from a peer meets one of that rank's boxes.

Recovery at ``before_exchange`` and ``mid_window`` stays bitwise.  A
hostile frame — a sub-domain its sender does not own, sub-domains that
span two of its aligned subtrees, one twice or one already held, one
outside the grid, one none of whose cells the receiver needs, a value
count or value section that disagrees with the derived cells, a truncated
header — fails the receiving rank with a typed error naming the entry's
offset, before any value is read; the process and the job survive it.
"""

from __future__ import annotations

import dataclasses
import itertools
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulate import cells_touching_rank, union_touching_rank
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
from repro.octree.treesum import Operand
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
    """Every ``(receiving rank, source rank, [operands])`` the ranks merge,
    each frame decoded a second time into a list of its own."""
    seen = []
    merge = worker.merge_exchanged

    def spy(merged, payload, config, *, src, rank):
        operands: list = []
        merge(operands, payload, config, src=src, rank=rank)
        seen.append((rank, src, operands))
        merge(merged, payload, config, src=src, rank=rank)

    monkeypatch.setattr(worker, "merge_exchanged", spy)
    return seen


@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("shape", SHAPES, ids=["n32", "n64"])
@pytest.mark.parametrize("ranks", [1, 2, 3, 4, 8])
def test_peers_receive_exactly_their_cells(ranks, shape, policy, overlap, decoded):
    config = DistConfig(num_ranks=ranks, policy=policy, overlap=overlap, **shape)
    field, spectrum, serial = _serial(config)
    report = dist_run(config, field=field, spectrum=spectrum)
    assert report.failed_ranks == []
    assert np.array_equal(report.approx, serial.approx)

    k, m = config.k, config.n // config.k
    patterns = {sub.index: f.pattern for sub, f in serial.per_domain}
    summed = not overlap and ranks & (ranks - 1) == 0
    received = brute = 0
    for rank, src, operands in decoded:
        if src == rank:
            continue
        if summed:
            # one entry: every field of the sender that the rank needs
            needed = [
                i
                for i, p in sorted(patterns.items())
                if i % ranks == src
                and any(_meets_rank(cell, k, m, ranks, rank) for cell in _cells(p))
            ]
            assert [op.leaves for op in operands] == ([tuple(needed)] if needed else [])
        else:
            assert all(len(op.leaves) == 1 for op in operands)
        for op in operands:
            assert all(index % ranks == src for index in op.leaves)
            received += 8 * op.field.values.size
            for cell in _cells(op.pattern):
                assert _meets_rank(cell, k, m, ranks, rank), (rank, src, op.leaves)
            # brute force: the distinct cells of the covered fields that
            # meet the rank's boxes, each once however many fields hold it
            union = {
                cell
                for index in op.leaves
                for cell in _cells(patterns[index])
                if _meets_rank(cell, k, m, ranks, rank)
            }
            brute += 8 * sum(samples for _corner, _edge, samples in union)
    assert received == report.predicted_value_bytes == brute
    if ranks > 1:
        assert report.predicted_value_bytes < report.eq6_value_bytes


def test_pool_geometry_halves_the_exchange():
    """``pool_tcp_p2``'s geometry (n=64, k=16, banded, P=2): each rank
    sums the cells its 4 fields share and sends the peer the sums of the
    ones touching its boxes — 21.5% of the allgather's samples, against
    39.6% when every field's touching cells went alone.  Each of the two
    frames adds an 8-byte entry count and one entry header (8-byte field
    count, 4 x 8-byte indices, 8-byte value count), and the transport a
    20-byte frame header: 2 x (20 + 8 + 48) = 152 bytes over the
    prediction, so the wire reads 1.0008 of it.  The sample count, the
    Eq 6 result size and the exchange wire bytes are pinned exactly: a
    change to any of them is a change to the method or the wire format,
    never noise."""
    config = DistConfig(n=64, k=16, policy="banded", num_ranks=2)
    field, spectrum, serial = _serial(config)
    report = dist_run(config, field=field, spectrum=spectrum)
    assert np.array_equal(report.approx, serial.approx)
    assert (report.predicted_value_bytes, report.eq6_value_bytes) == (
        8 * 22_880,
        8 * 106_488,
    )
    assert (
        serial.total_samples,
        serial.compressed_bytes,
        report.exchange_wire_bytes,
    ) == (106_488, 891_264, 183_192)
    assert 1.0 <= report.wire_over_model <= 1.01
    # streamed, every chunk is one field: the sums are a barrier's alone
    streamed = dist_run(
        dataclasses.replace(config, overlap=True), field=field, spectrum=spectrum
    )
    assert np.array_equal(streamed.approx, serial.approx)
    assert streamed.predicted_value_bytes == 8 * 42_192


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
    """A peer's frame may carry only sub-domains that peer owns, in one
    aligned subtree of its share per entry, each once, none inside a
    subtree already summed, each entry with exactly the values of the
    cells that touch the receiver's boxes: anything else is a typed
    failure of the receiving rank, raised before any array is sized from
    the frame."""

    CONFIG = DistConfig(n=32, k=8, num_ranks=2)

    @classmethod
    def _pairs(cls, indices, config=None):
        config = config or cls.CONFIG
        field, spectrum, serial = _serial(config)
        fields = dict((sub.index, f) for sub, f in serial.per_domain)
        decomp = DomainDecomposition(config.n, config.k)
        return [(decomp.subdomain(i), fields[i]) for i in indices]

    @classmethod
    def _frame(cls, indices, dst=0, config=None, others=frozenset()):
        """``indices``' fields as their owner would send them to ``dst``."""
        config = config or cls.CONFIG
        pairs = cls._pairs(indices, config)
        values = [worker.encode_values(f, config.precision) for _s, f in pairs]
        return worker.exchange_frame(pairs, values, config, dst, others).tobytes()

    @classmethod
    def _active(cls, owner, config=None):
        config = config or cls.CONFIG
        ranks = config.num_ranks
        return [
            sub.index
            for sub, _f in _serial(config)[2].per_domain
            if sub.index % ranks == owner
        ]

    @classmethod
    def _values(cls, indices, rank=0, config=None):
        """Values rank ``rank`` needs of the sum of ``indices``' fields."""
        config = config or cls.CONFIG
        patterns = [f.pattern for _s, f in cls._pairs(indices, config)]
        return union_touching_rank(
            patterns, indices, config.k, config.num_ranks, rank
        ).sample_count

    def _rejects(self, frame, match, offset, merged=None, config=None, src=1, rank=0):
        with pytest.raises(ExchangeFrameError, match=match) as err:
            worker.merge_exchanged(
                [] if merged is None else merged,
                frame,
                config or self.CONFIG,
                src=src,
                rank=rank,
            )
        assert err.value.offset == offset

    def test_a_barrier_frame_is_one_summed_entry(self):
        mine = self._active(1)
        assert len(mine) == 4
        frame = self._frame(mine)
        assert struct.unpack_from("<6q", frame, 0) == (1, 4, *mine)
        merged: list = []
        worker.merge_exchanged(merged, frame, self.CONFIG, src=1, rank=0)
        (op,) = merged
        assert op.leaves == tuple(mine)
        assert op.field.values.size == self._values(mine)
        assert len(frame) == 8 + 48 + 8 * op.field.values.size

    def test_foreign_index_is_rejected_with_its_offset(self):
        mine, theirs = self._active(1)[0], self._active(0)[0]
        frame = self._frame([mine, theirs])
        # the second entry starts after the entry count, the first entry's
        # header and its values
        second = 8 + 24 + 8 * self._values([mine])
        self._rejects(frame, f"sub-domain {theirs}, owned by rank 0", second)

    def test_leaves_owned_by_another_rank_are_rejected(self):
        theirs = self._active(0)
        frame = self._frame(theirs)  # rank 0's summed entry, from rank 1
        self._rejects(frame, f"sub-domain {theirs[0]}, owned by rank 0", 8)

    def test_leaves_that_span_two_aligned_subtrees_are_rejected(self):
        """At P=3 sub-domains 22 and 25 are both rank 1's, but the smallest
        subtree holding them is the whole tree: their sum would skip the
        adds the tree makes with rank 0's and rank 2's fields."""
        config = DistConfig(n=16, k=4, num_ranks=3, policy="flat:2")
        pairs = self._pairs([22, 25], config)
        values = [f.values for _s, f in pairs]
        union = union_touching_rank([f.pattern for _s, f in pairs], [22, 25], 4, 3, 0)
        forged = struct.pack("<5q", 1, 2, 22, 25, union.sample_count)
        forged += b"".join(v.tobytes() for v in union.values(values))
        self._rejects(forged, r"sub-domains \[22, 25\], which span more than one", 8, config=config)
        # sent as two fields, the same sub-domains merge
        worker.merge_exchanged([], self._frame([22, 25], config=config), config, src=1, rank=0)

    def test_repeated_index_is_rejected(self):
        frame = self._frame([self._active(1)[0]])
        merged: list = []
        worker.merge_exchanged(merged, frame, self.CONFIG, src=1, rank=0)
        self._rejects(frame, "already arrived", 8, merged)  # the first entry
        # twice in one entry
        index = self._active(1)[0]
        twice = bytearray(struct.pack("<4q", 1, 2, index, index))
        self._rejects(bytes(twice) + frame[32:], "not ascending and distinct", 8)

    def test_restored_leaf_inside_a_summed_subtree_is_rejected(self):
        """A resumed job restores some fields on every rank; a sum over a
        subtree holding one of them would add it twice."""
        mine = self._active(1)
        restored = self._pairs(mine[:1])[0]
        merged = [Operand.leaf(restored[0].index, restored[1])]
        frame = self._frame(mine[1:])  # one summed entry over the rest
        assert struct.unpack_from("<q", frame, 8) == (len(mine) - 1,)
        self._rejects(frame, f"holds sub-domain {mine[0]}, which already arrived", 8, merged)
        # the sender that knows about it sends the rest alone or in
        # subtrees clear of it, which merge
        honest = self._frame(mine[1:], others={mine[0]})
        worker.merge_exchanged(merged, honest, self.CONFIG, src=1, rank=0)
        assert sorted(leaf for op in merged for leaf in op.leaves) == mine

    def test_leaf_inside_a_sum_that_arrived_is_rejected(self):
        mine = self._active(1)
        merged: list = []
        worker.merge_exchanged(merged, self._frame(mine[1:]), self.CONFIG, src=1, rank=0)
        single = self._frame(mine[:1])
        self._rejects(single, "inside the subtree of a sum that already arrived", 8, merged)

    def test_index_outside_the_grid_is_rejected(self):
        frame = bytearray(self._frame([self._active(1)[0]]))
        struct.pack_into("<q", frame, 16, 65)  # (32 / 8)^3 = 64 sub-domains
        self._rejects(bytes(frame), r"sub-domain 65, outside \[0, 64\)", 8)

    def test_declared_count_must_match_the_derived_cells(self):
        index = self._active(1)[0]
        frame = bytearray(self._frame([index]))
        declared = self._values([index]) - 1
        struct.pack_into("<q", frame, 24, declared)
        self._rejects(bytes(frame), f"declared {declared} values for sub-domains \\[{index}\\]", 8)
        # a count no frame could hold is rejected the same way, before
        # anything is sized from it
        struct.pack_into("<q", frame, 24, 1 << 62)
        self._rejects(bytes(frame), f"declared {1 << 62} values", 8)

    def test_declared_count_of_a_sum_must_be_its_unions(self):
        mine = self._active(1)
        frame = bytearray(self._frame(mine))
        header = 8 + 8 * (len(mine) + 1)
        per_field = sum(self._values([i]) for i in mine)
        struct.pack_into("<q", frame, header, per_field)  # the unsummed count
        self._rejects(bytes(frame), f"declared {per_field} values", 8)

    def test_truncated_value_section_is_rejected(self):
        index = self._active(1)[0]
        frame = self._frame([index])
        self._rejects(frame[:-8], f"value bytes for sub-domains \\[{index}\\]", 8)
        self._rejects(frame[:20], "truncated entry header", 8)
        self._rejects(frame[:12], "truncated entry header", 8)
        self._rejects(frame[:4], "shorter than its 8-byte entry count", 0)
        summed = self._frame(self._active(1))
        self._rejects(summed[:40], "truncated entry header", 8)
        self._rejects(summed[:-1], "value bytes for sub-domains", 8)

    def test_entry_covering_an_absurd_field_count_is_rejected(self):
        frame = bytearray(self._frame([self._active(1)[0]]))
        struct.pack_into("<q", frame, 8, 1 << 40)
        self._rejects(bytes(frame), "covering 1099511627776 sub-domains", 8)

    def test_entry_for_cells_the_receiver_does_not_need_is_rejected(self):
        """n=16 / k=8 has 8 sub-domains, so at P=9 rank 8 owns no box and
        needs no cell of any field: a sender never gives it an entry, and a
        frame that does is rejected, whatever its count."""
        config = DistConfig(n=16, k=8, num_ranks=9)
        pattern = parse_policy(config.policy).pattern_for(16, 8, (0, 0, 8))
        assert not cells_touching_rank(pattern, 8, 9, 8).num_cells
        frame = struct.pack("<qqqq", 1, 1, 1, 0)
        with pytest.raises(ExchangeFrameError, match="none of whose cells touch rank 8") as err:
            worker.merge_exchanged([], frame, config, src=1, rank=8)
        assert err.value.offset == 8

    def test_float32_frame_sized_for_float64_is_rejected(self):
        """A float32 receiver reads half the value bytes a float64 sender
        wrote, so the frame ends with bytes its entries do not account
        for."""
        index = self._active(1)[0]
        frame = self._frame([index])
        as_float32 = dataclasses.replace(self.CONFIG, precision="float32")
        after = 8 + 24 + 4 * self._values([index])
        self._rejects(frame, f"ends after 1 with {len(frame) - after} bytes left", after, config=as_float32)

    def test_float32_sends_fields_not_sums(self):
        """A float32 sum would round twice, which the serial oracle never
        does: float32 frames carry one entry per field, and a summed entry
        is rejected."""
        as_float32 = dataclasses.replace(self.CONFIG, precision="float32")
        mine = self._active(1)
        frame = self._frame(mine, config=as_float32)
        assert struct.unpack_from("<2q", frame, 0) == (len(mine), 1)
        summed = self._frame(mine)
        self._rejects(summed, "sum of 4 sub-domains at float32", 8, config=as_float32)

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


def _mutants():
    """Byte-level mutations of a valid frame: flip, overwrite with an
    extreme int64, truncate, or insert."""
    return st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(0, 7)),
        st.tuples(
            st.just("int64"),
            st.integers(0, 10**6),
            st.sampled_from([-1, 0, 1, 2, 63, 64, 1 << 31, 1 << 62, -(1 << 63)]),
        ),
        st.tuples(st.just("cut"), st.integers(0, 10**6), st.just(0)),
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.integers(0, 255)),
    )


class TestMutatedFrames:
    """Every mutant of a valid frame either fails with the typed error or
    decodes to the same fields (same sub-domains and cells; a flipped value
    byte is a value, not a format error), and nothing is decoded — no array
    sized from the frame — before the whole frame has been checked."""

    CONFIG = DistConfig(n=32, k=8, num_ranks=2)

    @classmethod
    def _valid(cls):
        # rank 1's barrier frame to rank 0 in a resumed job that restored
        # one of its fields: a summed entry, then a single-field one
        mine = TestHostilePeer._active(1)
        frame = TestHostilePeer._frame(mine[1:], others={mine[0]})
        pairs = TestHostilePeer._pairs(mine[:1])
        return frame, [Operand.leaf(sub.index, f) for sub, f in pairs]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_mutants())
    def test_mutants_fail_typed_or_decode_the_same_fields(self, mutation):
        frame, restored = self._valid()
        reference = list(restored)
        worker.merge_exchanged(reference, frame, self.CONFIG, src=1, rank=0)
        kind, where, what = mutation
        mutant = bytearray(frame)
        if kind == "flip":
            mutant[where % len(frame)] ^= 1 << what
        elif kind == "int64":
            where = where % (len(frame) // 8) * 8
            struct.pack_into("<q", mutant, where, what)
        elif kind == "cut":
            del mutant[where % len(frame) :]
        else:
            mutant.insert(where % (len(frame) + 1), what)
        decodes = []
        decode = worker.decode_values

        def spy(buffer, precision):
            decodes.append(len(buffer))
            return decode(buffer, precision)

        merged = list(restored)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(worker, "decode_values", spy)
            try:
                worker.merge_exchanged(merged, bytes(mutant), self.CONFIG, src=1, rank=0)
            except ExchangeFrameError as err:
                assert 0 <= err.offset <= len(mutant)
                assert decodes == []
                return
        assert [op.leaves for op in merged] == [op.leaves for op in reference]
        assert [op.pattern.geometry_key for op in merged] == [
            op.pattern.geometry_key for op in reference
        ]
