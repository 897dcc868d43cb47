"""Reconstruction plans (``octree/interpolate.py``) and pattern interning
(``octree/serialize.py``).

The oracle is the per-cell evaluator the plans replaced, kept here on
purpose: one cell at a time, three ``np.tensordot`` contractions in
x -> y -> z order, weight matrices built from absolute coordinates.  The
plan path must equal it **bitwise** — it contracts the same two-term dot
products in the same order with the same GEMM operand shapes per cell, only
batched over congruent cells — over a derandomised sweep of grids,
policies, boxes (1-wide and unaligned included), methods and ``out=``
forms.

``reconstruct_box`` against a slice of ``reconstruct_dense`` is bitwise
only where no cell is clipped to a single query: BLAS evaluates a
one-column product through its matrix-vector kernel, which rounds the
two-term sum differently from the matrix-matrix kernel the unclipped cell
goes through (the per-cell oracle has the same property).  Sub-domain
aligned boxes never clip a cell that thin, and those are the boxes the
cross-mode bitwise contract rests on, so they are asserted bitwise and
arbitrary boxes to the last few ulps.

A plan over several fields sums the cells they share before it
interpolates, so its result is a few ulps from the per-field sum of
reconstructions, never bitwise: ``TestMergedAccumulation`` bounds that
distance and holds every rank's blocks bitwise to the global slices.
"""

from __future__ import annotations

import sys
import threading
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulate import (
    accumulate_boxes,
    accumulate_global,
    cells_touching_rank,
)
from repro.core.checkpoint import (
    checkpoint_from_bytes,
    checkpoint_segments,
    join_checkpoint_segments,
)
from repro.core.decomposition import DomainDecomposition
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError, ShapeError
from repro.octree import interpolate, serialize
from repro.octree.compress import CompressedField
from repro.octree.interpolate import (
    ReconstructionPlan,
    reconstruct_box,
    reconstruct_dense,
)
from repro.octree.serialize import deserialize_compressed, serialize_compressed
from repro.util.lru import WeightedLRU


# -- the oracle: the per-cell evaluator the plans replaced -------------------
def _oracle_axis_matrix(coords, query, nearest):
    if coords.size == 1:
        lo = hi = np.zeros(query.shape, dtype=np.intp)
        t = np.zeros(query.shape)
    else:
        lo = np.searchsorted(coords, query, side="right") - 1
        np.clip(lo, 0, coords.size - 2, out=lo)
        hi = lo + 1
        t = (query - coords[lo]) / (coords[hi] - coords[lo])
        if nearest:
            t = np.round(t)
    w = np.zeros((query.size, coords.size))
    rows = np.arange(query.size)
    np.add.at(w, (rows, lo), 1.0 - t)
    np.add.at(w, (rows, hi), t)
    return w


def oracle_reconstruct_box(compressed, corner, shape, method="linear", out=None):
    """One Python iteration and three ``tensordot``s per cell."""
    lo = tuple(int(c) for c in corner)
    hi = tuple(int(c) + int(s) for c, s in zip(corner, shape))
    if out is None:
        out = np.zeros(tuple(int(s) for s in shape), dtype=np.float64)
    nearest = method == "nearest"
    meta = compressed.pattern.metadata()
    for idx, cell in enumerate(compressed.pattern.cells):
        ilo = [max(cell.corner[d], lo[d]) for d in range(3)]
        ihi = [min(cell.corner[d] + cell.size, hi[d]) for d in range(3)]
        if any(a >= b for a, b in zip(ilo, ihi)):
            continue
        offset = int(meta[idx * 5 + 4])
        s = cell.samples_per_axis
        block = compressed.values[offset : offset + cell.sample_count].reshape(s, s, s)
        wx, wy, wz = (
            _oracle_axis_matrix(
                cell.axis_coords(d).astype(np.float64),
                np.arange(ilo[d], ihi[d], dtype=np.float64),
                nearest,
            )
            for d in range(3)
        )
        vals = np.tensordot(wx, block, axes=(1, 0))  # (qx, sy, sz)
        vals = np.tensordot(vals, wy, axes=(1, 1))  # (qx, sz, qy)
        vals = np.tensordot(vals, wz, axes=(1, 1))  # (qx, qy, qz)
        out[tuple(slice(a - o, b - o) for a, b, o in zip(ilo, ihi, lo))] += vals
    return out


# -- inputs -------------------------------------------------------------------
POLICIES = {
    "banded": SamplingPolicy(),
    "flat:2": SamplingPolicy.flat_rate(2),
    "flat:4": SamplingPolicy.flat_rate(4),
    "boundary": SamplingPolicy(r_near=2, r_mid=4, r_far=8, boundary_width=2),
}


@lru_cache(maxsize=None)
def _field(n: int, k: int, policy: str, corner_index: int) -> CompressedField:
    sub = DomainDecomposition(n=n, k=k).subdomain(corner_index)
    pattern = POLICIES[policy].pattern_for(n, k, sub.corner)
    rng = np.random.default_rng([n, k, corner_index])
    return CompressedField(pattern, rng.standard_normal(pattern.sample_count))


@st.composite
def _cases(draw):
    n = draw(st.sampled_from([16, 32, 64]))
    k = n // draw(st.sampled_from([2, 4]))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    corner_index = draw(st.integers(0, (n // k) ** 3 - 1))
    lo, shape = [], []
    for _axis in range(3):
        a = draw(st.integers(0, n - 1))
        width = draw(st.one_of(st.just(1), st.integers(1, n - a)))
        lo.append(a)
        shape.append(width)
    method = draw(st.sampled_from(["linear", "nearest"]))
    out_form = draw(st.sampled_from(["none", "preallocated", "strided"]))
    return n, k, policy, corner_index, tuple(lo), tuple(shape), method, out_form


def _out_for(out_form: str, shape, seed: int):
    """``out`` argument plus the array it adds onto (None: zeros)."""
    if out_form == "none":
        return None, None
    rng = np.random.default_rng(seed)
    if out_form == "preallocated":
        out = rng.standard_normal(shape)
    else:  # every other element of a larger buffer, reversed along z
        backing = rng.standard_normal(tuple(2 * s for s in shape))
        out = backing[::2, ::2, ::-2]
        assert out.shape == tuple(shape)
    return out, out.copy()


class TestPlanEqualsOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_cases())
    def test_bitwise_over_generated_boxes(self, case):
        n, k, policy, corner_index, lo, shape, method, out_form = case
        cf = _field(n, k, policy, corner_index)
        out, before = _out_for(out_form, shape, seed=sum(lo))
        got = reconstruct_box(cf, lo, shape, method=method, out=out)
        expected = oracle_reconstruct_box(
            cf, lo, shape, method=method, out=None if before is None else before
        )
        if out is not None:
            assert got is out
        assert np.array_equal(got, expected)
        # and a box is the matching slice of the dense reconstruction
        dense = reconstruct_dense(cf, method=method)
        window = dense[tuple(slice(a, a + s) for a, s in zip(lo, shape))]
        np.testing.assert_allclose(
            reconstruct_box(cf, lo, shape, method=method), window, rtol=1e-13, atol=1e-13
        )

    @pytest.mark.parametrize(
        "n,k,policy",
        [(64, 16, "banded"), (32, 8, "flat:2"), (32, 8, "boundary"), (64, 32, "flat:4")],
    )
    @pytest.mark.parametrize("method", ["linear", "nearest"])
    def test_subdomain_boxes_are_bitwise_slices_of_dense(self, n, k, policy, method):
        """The property cross-mode identity rests on: a rank's k^3 box of a
        field is bit for bit what ``run_serial``'s full-grid pass puts
        there."""
        decomposition = DomainDecomposition(n=n, k=k)
        for corner_index in (0, decomposition.num_domains // 2 + 1):
            cf = _field(n, k, policy, corner_index)
            dense = reconstruct_dense(cf, method=method)
            assert np.array_equal(
                dense, oracle_reconstruct_box(cf, (0, 0, 0), (n, n, n), method=method)
            )
            for sub in decomposition:
                box = reconstruct_box(cf, sub.corner, (k, k, k), method=method)
                assert np.array_equal(box, dense[sub.slices()])

    def test_large_cells_match_the_oracle(self):
        """n=128 ``flat:2``: 33^3-sample cells, each a chunk of its own."""
        cf = _field(128, 32, "flat:2", 21)
        assert np.array_equal(
            reconstruct_dense(cf),
            oracle_reconstruct_box(cf, (0, 0, 0), (128, 128, 128)),
        )


class TestReconstructBoxContract:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="method must be"):
            reconstruct_box(_field(16, 8, "flat:2", 0), (0, 0, 0), (4, 4, 4), method="cubic")

    @pytest.mark.parametrize(
        "corner,shape",
        [((14, 0, 0), (4, 4, 4)), ((-1, 0, 0), (4, 4, 4)), ((0, 0, 0), (4, 0, 4))],
    )
    def test_box_outside_grid_rejected(self, corner, shape):
        with pytest.raises(ShapeError, match="outside grid of size 16"):
            reconstruct_box(_field(16, 8, "flat:2", 0), corner, shape)

    def test_out_of_the_wrong_shape_rejected(self):
        with pytest.raises(ShapeError, match="out shape"):
            reconstruct_box(
                _field(16, 8, "flat:2", 0), (0, 0, 0), (4, 4, 4), out=np.zeros((4, 4, 5))
            )

    def test_out_is_added_to_not_overwritten(self):
        cf = _field(16, 8, "banded", 3)
        out = np.ones((16, 16, 16))
        reconstruct_box(cf, (0, 0, 0), (16, 16, 16), out=out)
        assert np.array_equal(out, 1.0 + reconstruct_dense(cf))


class TestPlanReuse:
    def test_second_call_builds_no_plan(self):
        cf = _field(32, 8, "banded", 5)
        table = interpolate._PLANS
        reconstruct_box(cf, (3, 4, 5), (9, 8, 7))  # may or may not be cached
        misses, hits = table.misses, table.hits
        reconstruct_box(cf, (3, 4, 5), (9, 8, 7))
        assert (table.misses, table.hits) == (misses, hits + 1)

    def test_congruent_patterns_share_a_plan(self):
        """Keyed on geometry content: a decoded copy of a pattern, or the
        same pattern under other values, hits the plan built for it."""
        cf = _field(32, 8, "flat:2", 9)
        reconstruct_box(cf, (0, 0, 0), (32, 32, 32))
        misses = interpolate._PLANS.misses
        rebuilt = SamplingPolicy.flat_rate(2).pattern_for(
            32, 8, DomainDecomposition(n=32, k=8).subdomain(9).corner
        )
        assert rebuilt is not cf.pattern
        reconstruct_dense(CompressedField(rebuilt, 2.0 * cf.values))
        reconstruct_dense(deserialize_compressed(serialize_compressed(cf)))
        assert interpolate._PLANS.misses == misses

    def test_method_and_box_are_part_of_the_key(self):
        cf = _field(16, 8, "banded", 0)
        table = interpolate._PLANS
        reconstruct_box(cf, (0, 0, 0), (8, 8, 8))
        reconstruct_box(cf, (0, 0, 0), (8, 8, 8), method="nearest")
        reconstruct_box(cf, (0, 0, 0), (8, 8, 7))
        misses, hits = table.misses, table.hits
        reconstruct_box(cf, (0, 0, 0), (8, 8, 8))
        reconstruct_box(cf, (0, 0, 0), (8, 8, 8), method="nearest")
        reconstruct_box(cf, (0, 0, 0), (8, 8, 7))
        assert (table.misses, table.hits) == (misses, hits + 3)
        keys = [k for k in table._entries if k[0] == (cf.pattern.geometry_key,)]
        assert len({k[1:] for k in keys}) == len(keys) >= 3

    def test_plans_are_weighed_in_bytes(self, monkeypatch):
        """The table is bounded by what plans weigh, not by how many there
        are: a budget of four plans keeps about four, most recent last."""
        cf = _field(32, 8, "banded", 0)
        boxes = [((x, 0, 0), (8, 32, 32)) for x in range(0, 24)]
        one = ReconstructionPlan([cf.pattern], (0, 0, 0), (8, 32, 32), False).nbytes
        table = WeightedLRU(max_weight=4 * one)
        monkeypatch.setattr(interpolate, "_PLANS", table)
        for corner, shape in boxes:
            reconstruct_box(cf, corner, shape)
            assert table.weight <= table.max_weight
        assert 1 < len(table) < len(boxes)
        assert table.weight == sum(w for _plan, w in table._entries.values())
        assert all(plan.nbytes == w for plan, w in table._entries.values())
        misses = table.misses
        reconstruct_box(cf, *boxes[-1])  # most recent: still there
        reconstruct_box(cf, *boxes[0])  # oldest: evicted, rebuilt
        assert table.misses == misses + 1

    def test_plan_memory_is_per_cell_not_per_point(self):
        """A full-grid plan at n=64 covers 262 144 output points and ~13 000
        samples; it may store neither an index per point nor per sample."""
        pattern = _field(64, 16, "banded", 21).pattern
        plan = ReconstructionPlan([pattern], (0, 0, 0), (64, 64, 64), False)
        cells = sum(len(chunk.slices) for chunk in plan.chunks)
        assert cells == pattern.num_cells
        stored = sum(
            chunk.offsets.size for chunk in plan.chunks if chunk.offsets is not None
        )
        assert stored <= cells
        assert plan.nbytes < 1024 * cells
        # culling: a k^3 box keeps only the cells that touch it
        small = ReconstructionPlan([pattern], (48, 48, 48), (64, 64, 64), False)
        assert sum(len(chunk.slices) for chunk in small.chunks) < cells // 8

    def test_massif_components_share_one_plan_per_subdomain(self):
        """The six stress components sit on the same per-sub-domain
        patterns, so their six accumulations share one merged plan: at most
        one build, then hits."""
        from repro.massif.elasticity import (
            LameParameters,
            StiffnessField,
            isotropic_stiffness,
        )
        from repro.massif.lowcomm_solver import LowCommMassifSolver
        from repro.massif.microstructure import sphere_inclusion

        n, k = 16, 8
        phases = [
            isotropic_stiffness(LameParameters.from_young_poisson(young, 0.3))
            for young in (1.0, 5.0)
        ]
        stiffness = StiffnessField(sphere_inclusion(n, radius=5), phases)
        solver = LowCommMassifSolver(stiffness, k=k, policy=SamplingPolicy.flat_rate(2))
        sigma = np.random.default_rng(0).standard_normal((3, 3, n, n, n))
        sigma = sigma + sigma.transpose(1, 0, 2, 3, 4)
        table = interpolate._PLANS
        misses, hits = table.misses, table.hits
        solver._gamma_correction(sigma)
        assert table.misses - misses <= 1
        assert (table.hits - hits) + (table.misses - misses) == 6


class TestSharedTablesUnderThreads:
    """Both tables are process-wide and reached from server, rank and
    caller threads at once; eviction is a read-modify-write on shared
    counters, so a lost update would break the byte/cell accounting."""

    WORKERS = 8

    def _hammer(self, work):
        errors = []

        def run(worker):
            try:
                work(worker)
            except BaseException as exc:  # surfaced below, never swallowed
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(w,)) for w in range(self.WORKERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_plan_table_accounting_survives_concurrent_eviction(self, monkeypatch):
        cf = _field(32, 8, "banded", 0)
        boxes = [((x, y, 0), (8, 8, 32)) for x in (0, 8, 16) for y in (0, 8, 16)]
        one = ReconstructionPlan([cf.pattern], (0, 0, 0), (8, 8, 32), False).nbytes
        table = WeightedLRU(max_weight=3 * one)
        monkeypatch.setattr(interpolate, "_PLANS", table)
        expected = [oracle_reconstruct_box(cf, c, s) for c, s in boxes]
        rounds = 40

        def work(worker):
            for i in range(rounds):
                j = (worker + i) % len(boxes)
                assert np.array_equal(reconstruct_box(cf, *boxes[j]), expected[j])

        self._hammer(work)
        assert table.hits + table.misses == self.WORKERS * rounds
        assert table.weight == sum(w for _plan, w in table._entries.values())
        assert table.weight <= table.max_weight

    def test_concurrent_decodes_intern_one_pattern_per_payload(self, monkeypatch):
        fields = [_field(16, 4, "banded", i) for i in range(6)]
        budget = 3 * max(f.pattern.num_cells for f in fields)
        table = WeightedLRU(max_weight=budget)
        monkeypatch.setattr(serialize, "_PATTERNS", table)
        payloads = [serialize_compressed(f) for f in fields]

        def work(worker):
            for i in range(30):
                j = (worker + i) % len(fields)
                back = deserialize_compressed(payloads[j])
                assert back.pattern.cells == fields[j].pattern.cells

        self._hammer(work)
        assert table.weight == sum(p.num_cells for p, _w in table._entries.values())
        assert table.weight <= budget
        # quiescent again: one object per payload
        a = deserialize_compressed(payloads[0]).pattern
        assert deserialize_compressed(payloads[0]).pattern is a


class TestAccumulateBoxes:
    def test_blocks_are_bitwise_slices_of_accumulate_global(self):
        n, k = 32, 8
        decomposition = DomainDecomposition(n=n, k=k)
        fields = {i: _field(n, k, "banded", i) for i in (3, 17, 40, 63)}
        dense = accumulate_global([fields[i] for i in sorted(fields)])
        targets = [decomposition.subdomain(i) for i in (0, 17, 62)]
        arrival_order = dict(reversed(list(fields.items())))
        blocks = accumulate_boxes(arrival_order, targets)
        assert sorted(blocks) == [0, 17, 62]
        for sub in targets:
            assert np.array_equal(blocks[sub.index], dense[sub.slices()])

    def test_assembly_moves_the_blocks_out_of_the_rank_results(self):
        from repro.dist.launcher import dist_run
        from repro.dist.worker import DistConfig

        report = dist_run(
            DistConfig(n=16, k=8, policy="flat:2", num_ranks=2, transport="local")
        )
        assert report.approx.any()
        assert report.rank_results
        assert all(not result.blocks for result in report.rank_results.values())


# -- merged accumulation: shared cells summed before they are interpolated ----
def _wire(field, sub, precision, cells=None):
    """``field`` as a peer receives it: packed (whole or cut to ``cells``)
    at ``precision`` and decoded; ``None`` when the cut is empty."""
    blob = join_checkpoint_segments(
        checkpoint_segments([(sub, field)], precision, None if cells is None else [cells])
    )
    return checkpoint_from_bytes(blob).get(sub.index)


def _check_merged_accumulation(n, k, policy, method, ranks, active, precision):
    decomposition = DomainDecomposition(n=n, k=k)
    fields = {i: _field(n, k, policy, i) for i in sorted(active)}
    if precision != "float64":
        fields = {
            i: _wire(f, decomposition.subdomain(i), precision) for i, f in fields.items()
        }
    ordered = [fields[i] for i in sorted(fields)]
    dense = accumulate_global(ordered, method=method)

    # against the per-field sum it replaces: a few ulps, never more
    oracle = np.zeros((n, n, n))
    for f in ordered:
        reconstruct_box(f, (0, 0, 0), (n, n, n), method=method, out=oracle)
    assert np.abs(dense - oracle).max() <= 1e-13 * np.abs(oracle).max()

    # every rank's blocks, from its own fields whole and its peers' cut to
    # the cells that touch its boxes, are bitwise the global slices
    for rank in range(ranks):
        merged = {}
        for i, f in fields.items():
            sub = decomposition.subdomain(i)
            if i % ranks == rank:
                merged[i] = f
                continue
            cut = _wire(f, sub, precision, cells_touching_rank(f.pattern, k, ranks, rank))
            if cut is not None:
                merged[i] = cut
        targets = [sub for sub in decomposition if sub.index % ranks == rank]
        blocks = accumulate_boxes(merged, targets, method)
        assert sorted(blocks) == [sub.index for sub in targets]
        for sub in targets:
            assert np.array_equal(blocks[sub.index], dense[sub.slices()])


@st.composite
def _accumulations(draw):
    n, k = draw(st.sampled_from([(16, 4), (16, 8), (32, 8)]))
    policy = draw(st.sampled_from(["flat:2", "banded"]))
    method = draw(st.sampled_from(["linear", "nearest"]))
    ranks = draw(st.integers(1, 4))
    active = draw(st.sets(st.integers(0, (n // k) ** 3 - 1), min_size=1, max_size=12))
    return n, k, policy, method, ranks, active


class TestMergedAccumulation:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_accumulations())
    def test_blocks_are_global_slices_and_global_is_the_per_field_sum(self, case):
        _check_merged_accumulation(*case, precision="float64")

    def test_float32_decoded_fields(self):
        _check_merged_accumulation(
            32, 8, "banded", "linear", 3, {0, 5, 21, 22, 42, 63}, precision="float32"
        )

    def test_merged_plan_contracts_each_distinct_cell_once(self):
        """n=64 / k=16 ``banded`` over a dense field: 64 fields hold 8 576
        cells but only 1 136 distinct geometries, and the merged plan
        contracts each of those once.  Like a one-field plan, it stores a
        few offsets per cell and per shared (cell, field) pair — nothing per
        sample or output point — so its weight follows the cells."""
        n, k = 64, 16
        patterns = [
            POLICIES["banded"].pattern_for(n, k, sub.corner)
            for sub in DomainDecomposition(n=n, k=k)
        ]
        cells = sum(p.num_cells for p in patterns)
        samples = sum(p.sample_count for p in patterns)
        plan = ReconstructionPlan(patterns, (0, 0, 0), (n, n, n), False)
        contracted = sum(len(chunk.slices) for chunk in plan.chunks)
        assert (cells, contracted) == (8576, 1136)
        stored = sum(op.src.size + op.dst.size for op in plan.sums) + sum(
            chunk.offsets.size for chunk in plan.chunks if chunk.offsets is not None
        )
        assert stored <= 2 * cells
        assert plan.nbytes < 1024 * contracted
        # the summed samples live in a buffer of each call, not in the plan
        assert plan.summed_size < samples // 4


class TestPatternInterning:
    def test_same_bytes_decode_to_the_same_pattern_object(self):
        cf = _field(32, 8, "banded", 11)
        payload = serialize_compressed(cf)
        first = deserialize_compressed(payload)
        second = deserialize_compressed(bytearray(payload))
        assert first.pattern is second.pattern
        assert first.pattern.cells == cf.pattern.cells
        assert first.values is not second.values
        # other values over the same geometry: still the same pattern
        other = deserialize_compressed(
            serialize_compressed(CompressedField(cf.pattern, cf.values + 1.0))
        )
        assert other.pattern is first.pattern
        assert np.array_equal(other.values, cf.values + 1.0)

    def test_subdomain_labels_are_part_of_the_key(self):
        a = deserialize_compressed(serialize_compressed(_field(16, 8, "flat:2", 0)))
        b = deserialize_compressed(serialize_compressed(_field(16, 8, "flat:2", 1)))
        assert a.pattern is not b.pattern
        assert a.pattern.subdomain_corner != b.pattern.subdomain_corner

    def test_flipped_metadata_byte_never_reaches_the_cached_pattern(self):
        cf = _field(32, 8, "banded", 11)
        payload = bytearray(serialize_compressed(cf))
        interned = deserialize_compressed(bytes(payload)).pattern
        header_bytes = 9 * 8
        # cumulative-count field of the second cell
        payload[header_bytes + 9 * 4] ^= 0x01
        with pytest.raises(
            ConfigurationError,
            match=rf"invariant violated at cell 1: .*metadata at offset {header_bytes}",
        ):
            deserialize_compressed(bytes(payload))
        # a flipped size byte is as foreign to the table as a flipped count
        payload[header_bytes + 9 * 4] ^= 0x01
        payload[header_bytes + cf.pattern.num_cells * 20] ^= 0x04
        with pytest.raises(ConfigurationError, match=f"offset {header_bytes}"):
            deserialize_compressed(bytes(payload))
        assert deserialize_compressed(serialize_compressed(cf)).pattern is interned

    def test_table_stays_bounded(self, monkeypatch):
        fields = [_field(16, 4, "banded", i) for i in range(12)]
        budget = 3 * max(f.pattern.num_cells for f in fields)
        table = WeightedLRU(max_weight=budget)
        monkeypatch.setattr(serialize, "_PATTERNS", table)
        payloads = [serialize_compressed(f) for f in fields]
        for payload in payloads:
            deserialize_compressed(payload)
            assert table.weight <= budget
        assert 1 <= len(table) < len(fields)
        assert table.weight == sum(p.num_cells for p, _w in table._entries.values())
        # the most recent survives, the oldest was dropped and decodes afresh
        last = deserialize_compressed(payloads[-1]).pattern
        assert deserialize_compressed(payloads[-1]).pattern is last
        again = deserialize_compressed(payloads[0])
        assert again.pattern.cells == fields[0].pattern.cells
