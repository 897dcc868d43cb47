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
distance and holds every rank's blocks — summed from its own fields and
the partial sums its peers' exchange frames carry — bitwise to the global
slices at P = 1..8.  ``TestTreeSum`` holds the summation order itself to
an explicit recursion over the sub-domain index bits.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulate import accumulate_boxes, accumulate_global
from repro.core.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.core.decomposition import DomainDecomposition
from repro.core.policy import SamplingPolicy
from repro.dist.worker import DistConfig, exchange_frame, merge_exchanged
from repro.errors import ConfigurationError, ShapeError
from repro.octree import interpolate, serialize
from repro.octree.compress import CompressedField
from repro.octree.sampling import build_flat_pattern
from repro.octree.treesum import LEAF_BITS, Operand, TreeSum, check_disjoint, subtree
from repro.octree.interpolate import (
    ReconstructionPlan,
    as_operands,
    reconstruct_box,
    reconstruct_dense,
)
from repro.octree.serialize import (
    deserialize_compressed,
    encode_values,
    serialize_compressed,
)
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


def _oracle_axis_coords(c, size, rate):
    """A cell axis's stride lattice, clamped to its far face."""
    coords = np.arange(c, c + size, rate, dtype=np.intp)
    if coords[-1] != c + size - 1:
        coords = np.append(coords, c + size - 1)
    return coords


def oracle_reconstruct_box(compressed, corner, shape, method="linear", out=None):
    """One Python iteration and three ``tensordot``s per cell."""
    lo = tuple(int(c) for c in corner)
    hi = tuple(int(c) + int(s) for c, s in zip(corner, shape))
    if out is None:
        out = np.zeros(tuple(int(s) for s in shape), dtype=np.float64)
    nearest = method == "nearest"
    pattern = compressed.pattern
    for (x, y, z, rate, offset), size in zip(
        pattern.table.tolist(), pattern.cell_sizes().tolist()
    ):
        corner = (x, y, z)
        ilo = [max(corner[d], lo[d]) for d in range(3)]
        ihi = [min(corner[d] + size, hi[d]) for d in range(3)]
        if any(a >= b for a, b in zip(ilo, ihi)):
            continue
        axes = [_oracle_axis_coords(c, size, rate) for c in corner]
        s = len(axes[0])
        block = compressed.values[offset : offset + s**3].reshape(s, s, s)
        wx, wy, wz = (
            _oracle_axis_matrix(
                axes[d].astype(np.float64),
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
        rebuilt = build_flat_pattern(
            32, 8, DomainDecomposition(n=32, k=8).subdomain(9).corner, 2
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
        keys = [k for k in table._entries if k[0] == (Operand.leaf(0, cf).key,)]
        assert len({k[1:] for k in keys}) == len(keys) >= 3

    def test_plans_are_weighed_in_bytes(self, monkeypatch):
        """The table is bounded by what plans weigh, not by how many there
        are: a budget of four plans keeps about four, most recent last."""
        cf = _field(32, 8, "banded", 0)
        boxes = [((x, 0, 0), (8, 32, 32)) for x in range(0, 24)]
        one = ReconstructionPlan([Operand.leaf(0, cf)], [(0, 0, 0)], (8, 32, 32), False).nbytes
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
        cf = _field(64, 16, "banded", 21)
        pattern = cf.pattern
        plan = ReconstructionPlan([Operand.leaf(0, cf)], [(0, 0, 0)], (64, 64, 64), False)
        cells = sum(len(chunk.slices) for chunk in plan.chunks)
        assert cells == pattern.num_cells
        stored = sum(
            chunk.offsets.size for chunk in plan.chunks if chunk.offsets is not None
        )
        assert stored <= cells
        assert plan.nbytes < 1024 * cells
        # culling: a k^3 box keeps only the cells that touch it
        small = ReconstructionPlan([Operand.leaf(0, cf)], [(48, 48, 48)], (16, 16, 16), False)
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
        one = ReconstructionPlan([Operand.leaf(0, cf)], [(0, 0, 0)], (8, 8, 32), False).nbytes
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
        budget = 3 * max(f.pattern.nbytes for f in fields)
        table = WeightedLRU(max_weight=budget)
        monkeypatch.setattr(serialize, "_PATTERNS", table)
        payloads = [serialize_compressed(f) for f in fields]

        def work(worker):
            for i in range(30):
                j = (worker + i) % len(fields)
                back = deserialize_compressed(payloads[j])
                assert back.pattern.geometry_key == fields[j].pattern.geometry_key

        self._hammer(work)
        assert table.weight == sum(p.nbytes for p, _w in table._entries.values())
        assert table.weight <= budget
        # quiescent again: one object per payload
        a = deserialize_compressed(payloads[0]).pattern
        assert deserialize_compressed(payloads[0]).pattern is a


class TestAccumulateBoxes:
    def test_blocks_are_bitwise_slices_of_accumulate_global(self):
        n, k = 32, 8
        decomposition = DomainDecomposition(n=n, k=k)
        fields = {i: _field(n, k, "banded", i) for i in (3, 17, 40, 63)}
        dense = accumulate_global(fields)
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
def _wire(field, sub, precision):
    """``field`` as its checkpoint record round-trips at ``precision``."""
    blob = checkpoint_to_bytes([(sub, field)], precision)
    return checkpoint_from_bytes(blob)[sub.index]


def _received(fields, config, rank):
    """Rank ``rank``'s operands from its peers' ``fields``, each peer's sent
    to it in one barrier exchange frame: per aligned subtree of the peer's
    share, the sums of the cells its fields share that touch this rank's
    boxes, paired on receipt with the union it derives."""
    decomposition = DomainDecomposition(n=config.n, k=config.k)
    merged = []
    for src in range(config.num_ranks):
        if src == rank:
            continue
        pairs = [
            (decomposition.subdomain(i), f)
            for i, f in fields.items()
            if i % config.num_ranks == src
        ]
        values = [encode_values(f, config.precision) for _s, f in pairs]
        frame = exchange_frame(pairs, values, config, rank).tobytes()
        merge_exchanged(merged, frame, config, src=src, rank=rank)
    return merged


def _check_merged_accumulation(n, k, policy, method, ranks, active, precision):
    decomposition = DomainDecomposition(n=n, k=k)
    fields = {i: _field(n, k, policy, i) for i in sorted(active)}
    if precision != "float64":
        fields = {
            i: _wire(f, decomposition.subdomain(i), precision) for i, f in fields.items()
        }
    dense = accumulate_global(fields, method=method)

    # against the per-field sum it replaces: a few ulps, never more
    oracle = np.zeros((n, n, n))
    for i in sorted(fields):
        reconstruct_box(fields[i], (0, 0, 0), (n, n, n), method=method, out=oracle)
    assert np.abs(dense - oracle).max() <= 1e-13 * np.abs(oracle).max()

    # every rank's blocks, from its own fields whole and its peers' sums
    # cut to the cells that touch its boxes, are bitwise the global slices
    config = DistConfig(n=n, k=k, policy=policy, precision=precision, num_ranks=ranks)
    for rank in range(ranks):
        merged = _received(fields, config, rank)
        if precision != "float64":
            assert all(len(op.leaves) == 1 for op in merged)
        merged += [Operand.leaf(i, f) for i, f in fields.items() if i % ranks == rank]
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
    # 3, 5, 6 and 7 ranks own no aligned subtree: one entry per field
    ranks = draw(st.integers(1, 8))
    active = draw(st.sets(st.integers(0, (n // k) ** 3 - 1), min_size=1, max_size=12))
    return n, k, policy, method, ranks, active


class TestMergedAccumulation:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(_accumulations())
    def test_blocks_are_global_slices_and_global_is_the_per_field_sum(self, case):
        _check_merged_accumulation(*case, precision="float64")

    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_every_rank_count_on_a_dense_grid(self, ranks):
        """All 64 sub-domains active, so cells have up to 37 holders and
        every level of the tree adds."""
        _check_merged_accumulation(32, 8, "banded", "linear", ranks, set(range(64)), "float64")

    def test_float32_decoded_fields(self):
        _check_merged_accumulation(
            32, 8, "banded", "linear", 3, {0, 5, 21, 22, 42, 63}, precision="float32"
        )
        _check_merged_accumulation(
            32, 8, "banded", "linear", 4, {0, 4, 5, 21, 22, 42, 63}, precision="float32"
        )

    def test_merged_plan_contracts_each_distinct_cell_once(self):
        """n=64 / k=16 ``banded`` over a dense field: 64 fields hold 8 576
        cells but only 1 136 distinct geometries, and the merged plan
        contracts each of those once.  Like a one-field plan, it stores a
        few offsets per cell and two per add of a shared cell — nothing per
        sample or output point — so its weight follows the cells."""
        n, k = 64, 16
        operands = [
            Operand.leaf(sub.index, CompressedField(pattern, np.zeros(pattern.sample_count)))
            for sub in DomainDecomposition(n=n, k=k)
            for pattern in [POLICIES["banded"].pattern_for(n, k, sub.corner)]
        ]
        cells = sum(op.pattern.num_cells for op in operands)
        samples = sum(op.pattern.sample_count for op in operands)
        plan = ReconstructionPlan(operands, [(0, 0, 0)], (n, n, n), False)
        contracted = sum(len(chunk.slices) for chunk in plan.chunks)
        assert (cells, contracted) == (8576, 1136)
        stored = sum(op.a_at.size + op.b_at.size for op in plan.tree.ops) + sum(
            chunk.offsets.size for chunk in plan.chunks if chunk.offsets is not None
        )
        assert stored <= 2 * cells
        assert plan.nbytes < 1024 * contracted
        # the summed samples live in a buffer of each call, not in the plan
        assert plan.summed_size < samples // 4


# -- one plan over a rank's box set ------------------------------------------
@st.composite
def _box_sets(draw):
    # (16, 2) ``banded`` has unit cells: pieces one x query wide, which
    # stay one cell per chunk
    n, k = draw(st.sampled_from([(8, 2), (16, 2), (16, 4), (32, 8)]))
    policy = draw(st.sampled_from(["flat:2", "banded"]))
    ranks = draw(st.integers(1, 4))
    domains = (n // k) ** 3
    active = draw(st.sets(st.integers(0, domains - 1), min_size=1, max_size=10))
    rank = draw(st.integers(0, ranks - 1))
    owned = list(range(rank, domains, ranks))
    boxes = draw(st.lists(st.sampled_from(owned), min_size=1, max_size=24, unique=True))
    merged = draw(st.booleans())
    return n, k, policy, ranks, active, rank, boxes, merged


class TestBoxSetPlans:
    """``accumulate_boxes`` runs one plan over a rank's whole box set: a
    cell is summed once and cut into a piece per box it meets, and pieces
    are contracted in congruent groups across boxes.  Every block must
    still be bitwise its slice of ``accumulate_global`` — over leaf fields
    and over the partial sums a peer's exchange frame carries, for any
    subset of a rank's boxes, in any order."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(_box_sets())
    def test_every_block_is_bitwise_its_global_slice(self, case):
        n, k, policy, ranks, active, rank, boxes, merged = case
        decomposition = DomainDecomposition(n=n, k=k)
        fields = {i: _field(n, k, policy, i) for i in sorted(active)}
        dense = accumulate_global(fields)
        if merged:
            config = DistConfig(n=n, k=k, policy=policy, num_ranks=ranks)
            operands = _received(fields, config, rank)
            operands += [Operand.leaf(i, f) for i, f in fields.items() if i % ranks == rank]
        else:
            operands = fields
        targets = [decomposition.subdomain(i) for i in boxes]
        blocks = accumulate_boxes(operands, targets)
        assert list(blocks) == boxes
        for sub in targets:
            assert np.array_equal(blocks[sub.index], dense[sub.slices()])

    def test_a_box_set_is_one_plan_with_fewer_chunks(self):
        """n=32 / k=8 ``banded`` over a dense field, rank 0 of 2: one
        plan for its 32 boxes, one tree sum, and fewer chunks than its
        boxes' separate plans together."""
        n, k, ranks = 32, 8, 2
        decomposition = DomainDecomposition(n=n, k=k)
        operands = as_operands({i: _field(n, k, "banded", i) for i in range(64)})
        targets = [sub for sub in decomposition if sub.index % ranks == 0]
        corners = [sub.corner for sub in targets]
        plan = ReconstructionPlan(operands, corners, (k, k, k), False)
        separate = [
            ReconstructionPlan(operands, [corner], (k, k, k), False) for corner in corners
        ]
        assert plan.boxes == len(targets)
        assert len(plan.chunks) < sum(len(p.chunks) for p in separate) // 2
        pieces = sum(len(chunk.slices) for chunk in plan.chunks)
        assert pieces == sum(len(c.slices) for p in separate for c in p.chunks)
        table = interpolate._PLANS
        accumulate_boxes(operands, targets)
        misses, hits = table.misses, table.hits
        accumulate_boxes(operands, targets)
        assert (table.misses, table.hits) == (misses, hits + 1)

    def test_unit_cells_are_contracted_one_per_chunk(self):
        """Pieces one x query wide keep the per-cell rule inside a box set:
        each is a chunk of its own, and the blocks stay bitwise."""
        n, k = 16, 2
        decomposition = DomainDecomposition(n=n, k=k)
        fields = {i: _field(n, k, "banded", i) for i in (0, 9, 300)}
        targets = [decomposition.subdomain(i) for i in range(0, 512, 3)]
        plan = ReconstructionPlan(
            as_operands(fields), [sub.corner for sub in targets], (k, k, k), False
        )
        thin = [chunk for chunk in plan.chunks if chunk.wx.shape[0] == 1]
        assert thin and all(len(chunk.slices) == 1 for chunk in thin)
        dense = accumulate_global(fields)
        blocks = accumulate_boxes(fields, targets)
        for sub in targets:
            assert np.array_equal(blocks[sub.index], dense[sub.slices()])

    def test_cells_find_the_boxes_they_meet_without_testing_every_box(self):
        """The (cell, box) pairs a plan cuts into pieces, against the
        brute-force test of every cell against every box: boxes on their
        lattice or anywhere, repeated, and cells that reach more lattice
        bins than there are boxes."""
        rng = np.random.default_rng(7)
        for _ in range(400):
            n = 2 ** int(rng.integers(2, 7))
            sizes = 2 ** rng.integers(0, int(np.log2(n)) + 1, size=rng.integers(0, 30))
            corners = (rng.integers(0, n, size=(len(sizes), 3)) // sizes[:, None]) * sizes[:, None]
            shape = tuple(int(w) for w in rng.integers(1, n + 1, size=3))
            width = np.array(shape)
            spots = rng.integers(0, n - width + 1, size=(int(rng.integers(1, 20)), 3))
            box_lo = spots if rng.random() < 0.5 else spots // width * width
            ends = corners + sizes[:, None]
            brute = np.ones((len(corners), len(box_lo)), dtype=bool)
            for axis in range(3):
                brute &= corners[:, None, axis] < box_lo[None, :, axis] + width[axis]
                brute &= ends[:, None, axis] > box_lo[None, :, axis]
            cell, box = interpolate._meets(corners, sizes, box_lo, shape)
            expected = np.nonzero(brute)
            assert np.array_equal(cell, expected[0]) and np.array_equal(box, expected[1])

    def test_building_plans_imports_no_masked_arrays(self):
        """A 1-D ``np.unique`` imports ``numpy.ma`` on first use (about
        1 MiB of resident memory and tens of ms of set-up in every process
        that solves); building and applying plans must not need it."""
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.core.accumulate import accumulate_boxes, accumulate_global\n"
            "from repro.core.decomposition import DomainDecomposition\n"
            "from repro.core.policy import parse_policy\n"
            "from repro.octree.compress import CompressedField\n"
            "d = DomainDecomposition(n=16, k=4)\n"
            "fields = {}\n"
            "for i in (0, 5):\n"
            "    p = parse_policy('banded').pattern_for(16, 4, d.subdomain(i).corner)\n"
            "    fields[i] = CompressedField(p, np.ones(p.sample_count))\n"
            "accumulate_global(fields)\n"
            "accumulate_boxes(fields, [s for s in d if s.index % 2 == 0])\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(interpolate.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_targets_of_several_sizes_are_rejected(self):
        from repro.core.decomposition import SubDomain

        field = _field(16, 4, "flat:2", 0)
        mixed = [SubDomain(0, (0, 0, 0), 4), SubDomain(1, (8, 0, 0), 8)]
        with pytest.raises(ConfigurationError, match="several sizes"):
            accumulate_boxes({0: field}, mixed)


# -- the summation order ------------------------------------------------------
def _tree_oracle(values, top):
    """The tree sum of ``values`` (leaf index -> array; a missing leaf is
    absent) over ``2**top`` leaves, by explicit recursion: a node is the
    sum of its two children, split on the next low bit, and an absent
    child passes the other through."""

    def node(residue, bits):
        if bits == top:
            return values.get(residue)
        a = node(residue, bits + 1)
        b = node(residue + (1 << bits), bits + 1)
        if a is None or b is None:
            return b if a is None else a
        return a + b

    return node(0, 0)


def _hostile_values(rng, size):
    """Values whose sums depend on the order: magnitudes over 16 decades,
    signed zeros among them."""
    values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    values[rng.random(size) < 0.15] = -0.0
    values[rng.random(size) < 0.05] = 0.0
    return values


def _bitwise(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestTreeSum:
    """The tree order against its definition, on 11 sub-domains (a count
    that is not a power of two: leaves 11..15 are padding)."""

    LEAVES = 11
    COUNT = 5  # samples per cell

    def _holders(self, rng, cells):
        """Per cell, the leaves holding it: one cell held by a single leaf,
        one by all, the rest by random subsets."""
        holders = [[3], list(range(self.LEAVES))]
        while len(holders) < cells:
            picks = np.flatnonzero(rng.random(self.LEAVES) < 0.5)
            holders.append(picks.tolist() or [int(rng.integers(self.LEAVES))])
        return holders

    def _sum(self, operands, holders, values):
        """TreeSum over ``operands`` (lists of leaves): each operand's value
        array holds, per cell it covers, the oracle's partial of its leaves."""
        rows, arrays = [], []
        for o, leaves in enumerate(operands):
            array = []
            for cell, held in enumerate(holders):
                mine = {leaf: values[leaf][cell] for leaf in held if leaf in leaves}
                if mine:
                    rows.append((cell, o, len(array) * self.COUNT))
                    array.append(_tree_oracle(mine, 4))
            arrays.append(np.concatenate(array) if array else np.zeros(0))
        nodes = np.array([subtree(leaves) for leaves in operands], dtype=np.int64)
        target, operand, offset = (np.array(col, dtype=np.int64) for col in zip(*rows))
        tree = TreeSum(
            nodes, target, operand, offset, np.full(len(rows), self.COUNT), len(holders)
        )
        all_arrays = [*arrays, tree.apply(arrays)]
        return [
            all_arrays[tree.source[c]][tree.at[c] : tree.at[c] + self.COUNT]
            for c in range(len(holders))
        ]

    def test_leaves_sum_as_the_recursion_does(self):
        rng = np.random.default_rng(7)
        holders = self._holders(rng, 40)
        values = {
            leaf: [_hostile_values(rng, self.COUNT) for _c in holders]
            for leaf in range(self.LEAVES)
        }
        got = self._sum([[leaf] for leaf in range(self.LEAVES)], holders, values)
        for cell, held in enumerate(holders):
            expected = _tree_oracle({leaf: values[leaf][cell] for leaf in held}, 4)
            assert _bitwise(got[cell], expected), (cell, held)
        # a single holder is read in place, signed zeros and all
        assert got[0] is not None and _bitwise(got[0], values[3][0])

    @pytest.mark.parametrize("ranks", [2, 4, 8])
    def test_shares_summed_first_give_the_same_bits(self, ranks):
        """Each rank's round-robin share is one aligned subtree: summing it
        first and handing the partial on changes no bit."""
        rng = np.random.default_rng(ranks)
        holders = self._holders(rng, 40)
        values = {
            leaf: [_hostile_values(rng, self.COUNT) for _c in holders]
            for leaf in range(self.LEAVES)
        }
        leaves = self._sum([[leaf] for leaf in range(self.LEAVES)], holders, values)
        shares = [list(range(r, self.LEAVES, ranks)) for r in range(ranks)]
        for keep in range(ranks):
            # rank ``keep`` holds its own leaves and its peers' partials
            operands = [[leaf] for leaf in shares[keep]]
            operands += [share for r, share in enumerate(shares) if r != keep and share]
            got = self._sum(operands, holders, values)
            assert all(_bitwise(a, b) for a, b in zip(got, leaves))

    def test_the_old_left_fold_differs(self):
        """The order is not a left fold in index order: with these values
        the two disagree, so the tests above can tell them apart."""
        rng = np.random.default_rng(3)
        values = {leaf: _hostile_values(rng, 64) for leaf in range(self.LEAVES)}
        fold = 0.0
        for leaf in range(self.LEAVES):
            fold = fold + values[leaf]
        assert not np.array_equal(fold, _tree_oracle(values, 4))

    def test_subtrees(self):
        assert subtree([5]) == (5, LEAF_BITS)
        assert subtree([1, 3]) == (1, 1)
        assert subtree([1, 5, 9]) == (1, 2)
        assert subtree([1, 9]) == (1, 3)
        assert subtree([0, 1]) == (0, 0)

    def test_overlapping_operands_are_rejected(self):
        cf = _field(16, 8, "flat:2", 0)
        pair = Operand((1, 5), cf, (cf.pattern.num_cells, 0))
        with pytest.raises(ConfigurationError, match="lies in the subtree"):
            check_disjoint([pair, Operand.leaf(9, cf)])  # 9 = 1 mod 4
        with pytest.raises(ConfigurationError, match="in two operands"):
            check_disjoint([pair, Operand.leaf(5, cf)])
        check_disjoint([pair, Operand.leaf(3, cf)])  # 3 = 3 mod 4
        with pytest.raises(ConfigurationError, match="lies in the subtree"):
            reconstruct_box([pair, Operand.leaf(9, cf)], (0, 0, 0), (4, 4, 4))


class TestPatternInterning:
    def test_same_bytes_decode_to_the_same_pattern_object(self):
        cf = _field(32, 8, "banded", 11)
        payload = serialize_compressed(cf)
        first = deserialize_compressed(payload)
        second = deserialize_compressed(bytearray(payload))
        assert first.pattern is second.pattern
        assert first.pattern.geometry_key == cf.pattern.geometry_key
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
        budget = 3 * max(f.pattern.nbytes for f in fields)
        table = WeightedLRU(max_weight=budget)
        monkeypatch.setattr(serialize, "_PATTERNS", table)
        payloads = [serialize_compressed(f) for f in fields]
        for payload in payloads:
            deserialize_compressed(payload)
            assert table.weight <= budget
        assert 1 <= len(table) < len(fields)
        assert table.weight == sum(p.nbytes for p, _w in table._entries.values())
        # the most recent survives, the oldest was dropped and decodes afresh
        last = deserialize_compressed(payloads[-1]).pattern
        assert deserialize_compressed(payloads[-1]).pattern is last
        again = deserialize_compressed(payloads[0])
        assert again.pattern.geometry_key == fields[0].pattern.geometry_key
