"""Tests for octree construction and the banded sampling patterns.

The oracle is the recursive subdivision the level-by-level builder
replaced, kept here with the scalar region oracle it called: one call per
cell, children visited x-major, and every derived array built cell by
cell.  The array builder must reproduce its packed table, cell edges,
sample coordinates, axis sets and gather index exactly, dtypes included.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.octree.sampling import (
    BandedRatePolicy,
    build_adaptive_pattern,
    build_box_pattern,
    build_flat_pattern,
)


# -- the oracle: recursive subdivision, one cell at a time -------------------
def _oracle_region_rate(pol, lo, hi):
    """The scalar region oracle: per-axis ranges of the distance to the
    box and to the grid edge, then the band rates those ranges span."""
    n, center = pol.n, (pol.n - 1) // 2
    dmin_axes, dmax_axes, emin_axes, emax_axes = [], [], [], []
    for axis in range(3):
        blo = pol.corner[axis]
        bhi = blo + pol.extent[axis] - 1
        rlo, rhi = lo[axis], hi[axis] - 1
        if rhi < blo:
            gmin = blo - rhi
        elif rlo > bhi:
            gmin = rlo - bhi
        else:
            gmin = 0
        dmin_axes.append(gmin)
        dmax_axes.append(max(blo - rlo, rhi - bhi, 0))
        ed_a, ed_b = min(rlo, n - 1 - rlo), min(rhi, n - 1 - rhi)
        emin_axes.append(min(ed_a, ed_b))
        if rlo <= center <= rhi:
            emax_axes.append(min(center, n - 1 - center))
        else:
            emax_axes.append(max(ed_a, ed_b))
    dmin, dmax = max(dmin_axes), max(dmax_axes)
    rates = []
    if min(emin_axes) < pol.boundary_width:
        rates.append(pol.boundary_rate)
    if min(emax_axes) >= pol.boundary_width:
        rates += [pol.base_rate(dmin), pol.base_rate(dmax)]
        for edge in (0, pol.k / 2, 4 * pol.k):
            if dmin < edge < dmax:
                rates += [pol.base_rate(edge), pol.base_rate(edge + 1)]
    return min(rates), max(rates)


def oracle_leaves(pol, min_cell=1):
    """``(corner, size, rate)`` of every leaf, in recursion order."""
    leaves = []

    def subdivide(corner, size):
        hi = tuple(c + size for c in corner)
        rmin, rmax = _oracle_region_rate(pol, corner, hi)
        if rmin == rmax or size <= min_cell or size == 1:
            leaves.append((corner, size, min(rmin, size)))
            return
        half = size // 2
        for dx, dy, dz in itertools.product((0, half), repeat=3):
            subdivide((corner[0] + dx, corner[1] + dy, corner[2] + dz), half)

    subdivide((0, 0, 0), pol.n)
    return leaves


def _oracle_axis_coords(c, size, rate):
    coords = np.arange(c, c + size, rate, dtype=np.intp)
    if coords[-1] != c + size - 1:
        coords = np.append(coords, c + size - 1)
    return coords


def oracle_arrays(pol, min_cell=1):
    """Packed metadata, cell edges, sample coordinates, axis sets and
    gather index, each built cell by cell."""
    leaves = oracle_leaves(pol, min_cell)
    lattices = [
        [_oracle_axis_coords(corner[a], size, rate) for a in range(3)]
        for corner, size, rate in leaves
    ]
    counts = [len(xs) * len(ys) * len(zs) for xs, ys, zs in lattices]
    starts = itertools.accumulate([0] + counts[:-1])
    meta = np.array(
        [(*corner, rate, start) for (corner, _s, rate), start in zip(leaves, starts)],
        dtype=np.int32,
    ).reshape(-1)
    sizes = np.array([size for _c, size, _r in leaves], dtype=np.int32)
    coords = np.concatenate(
        [
            np.stack([g.ravel() for g in np.meshgrid(*lattice, indexing="ij")], axis=1)
            for lattice in lattices
        ]
    )
    sets = [np.unique(np.concatenate([lat[a] for lat in lattices])) for a in range(3)]
    index = np.zeros(len(coords), dtype=np.intp)
    for a, retained in enumerate(sets):
        rank = np.zeros(pol.n, dtype=np.intp)
        rank[retained] = np.arange(len(retained), dtype=np.intp)
        index *= len(retained)
        index += rank[coords[:, a]]
    box = math.prod(len(s) for s in sets)
    return meta, sizes, coords, sets, index.astype(np.min_scalar_type(box - 1))


# -- inputs -------------------------------------------------------------------
@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["banded", "flat", "box"]))
    r_near, r_mid, r_far = (draw(st.integers(1, top)) for top in (4, 16, 32))
    if kind == "box":
        n = draw(st.sampled_from([8, 16, 32, 64]))
        shape = tuple(draw(st.integers(1, n // 2)) for _ in range(3))
        corner = tuple(draw(st.integers(0, n - s)) for s in shape)
        return dict(
            kind=kind, n=n, shape=shape, corner=corner, r_near=r_near,
            r_mid=r_mid, r_far=r_far, min_cell=draw(st.sampled_from([1, 2, 4, 8])),
        )
    n = draw(st.sampled_from([8, 16, 32, 64, 128]))
    k = draw(st.sampled_from([d for d in (1, 2, 4, 8, 16, 32, 64) if n // 16 <= d <= n // 2]))
    corner = tuple(k * draw(st.integers(0, n // k - 1)) for _ in range(3))
    if kind == "flat":
        return dict(kind=kind, n=n, k=k, corner=corner, r=r_mid)
    width = draw(st.integers(0, 3))
    min_cell = draw(st.sampled_from([1, 2, 4, 8]))
    if width:
        # the band puts cells of the smallest edge along every grid face;
        # keep the oracle's count of them small
        min_cell = max(min_cell, n // 16)
    return dict(
        kind=kind, n=n, k=k, corner=corner, r_near=r_near, r_mid=r_mid,
        r_far=r_far, boundary_width=width, boundary_rate=draw(st.integers(1, 4)),
        min_cell=min_cell,
    )


def _pattern_and_policy(case):
    """The pattern the builder makes and the policy and ``min_cell`` the
    oracle subdivides with."""
    case = dict(case)
    kind = case.pop("kind")
    if kind == "flat":
        r = case.pop("r")
        pol = BandedRatePolicy(r_near=r, r_mid=r, r_far=r, boundary_width=0, **case)
        return build_flat_pattern(r=r, **case), pol, 1
    min_cell = case.pop("min_cell")
    if kind == "box":
        rates = {name: case[name] for name in ("r_near", "r_mid", "r_far")}
        pol = BandedRatePolicy(
            n=case["n"], k=max(case["shape"]), corner=case["corner"],
            boundary_width=0, shape=case["shape"], **rates,
        )
        return build_box_pattern(min_cell=min_cell, **case), pol, min_cell
    return build_adaptive_pattern(min_cell=min_cell, **case), BandedRatePolicy(**case), min_cell


BANDED_32 = dict(
    kind="banded", n=32, k=8, corner=(8, 8, 8), r_near=2, r_mid=8, r_far=32,
    boundary_width=1, boundary_rate=1,
)


class TestArrayBuilderMatchesRecursion:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(_cases())
    @example(dict(BANDED_32, min_cell=1))
    @example(dict(BANDED_32, min_cell=4))
    @example(dict(kind="flat", n=16, k=4, corner=(4, 4, 4), r=1))
    @example(dict(kind="flat", n=16, k=8, corner=(0, 0, 0), r=2))
    @example(dict(kind="flat", n=8, k=1, corner=(0, 0, 0), r=64))
    @example(
        dict(kind="box", n=32, shape=(8, 16, 4), corner=(4, 8, 12), r_near=2,
             r_mid=4, r_far=8, min_cell=2)
    )
    def test_tables_and_derived_arrays_match(self, case):
        pattern, pol, min_cell = _pattern_and_policy(case)
        meta, sizes, coords, sets, index = oracle_arrays(pol, min_cell)
        for got, want in ((pattern.metadata(), meta), (pattern.cell_sizes(), sizes)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        for got, want in ((pattern.sample_coords, coords), (pattern.box_gather_index, index)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        for axis in range(3):
            got = pattern.axis_coordinate_set(axis)
            assert got.dtype == sets[axis].dtype
            assert np.array_equal(got, sets[axis])
        assert pattern.sample_count == len(coords)


def assert_partition(pattern):
    """The leaves tile the grid exactly: every point in one leaf."""
    seen = np.zeros((pattern.n,) * 3, dtype=np.int64)
    for corner, size in zip(pattern.table[:, :3].tolist(), pattern.cell_sizes().tolist()):
        seen[tuple(slice(c, c + size) for c in corner)] += 1
    assert (seen == 1).all()


class TestOctreeBuild:
    def test_uniform_rate_single_leaf(self):
        pat = build_flat_pattern(16, 4, (4, 4, 4), r=1)
        assert pat.num_cells == 1
        assert pat.table[0, 3] == 1

    def test_split_on_nonuniform(self):
        # the dense octant and seven uniformly sparse ones
        pat = build_flat_pattern(16, 8, (0, 0, 0), r=2)
        assert pat.num_cells == 8
        assert_partition(pat)

    def test_partition_valid(self):
        assert_partition(build_adaptive_pattern(32, 8, (8, 8, 8)))

    def test_non_pow2_rejected(self):
        with pytest.raises(ConfigurationError):
            build_flat_pattern(12, 4, (0, 0, 0), r=1)

    def test_min_cell_respected(self):
        pat = build_adaptive_pattern(32, 8, (8, 8, 8), min_cell=4)
        assert pat.cell_sizes().min() >= 4

    def test_rate_clamped_to_cell_size(self):
        pat = build_flat_pattern(8, 1, (0, 0, 0), r=64)
        assert (pat.table[:, 3] <= pat.cell_sizes()).all()

    def test_bad_rate_fn(self):
        with pytest.raises(ConfigurationError):
            build_adaptive_pattern(8, 2, (0, 0, 0), r_far=0)


class TestBandedRatePolicy:
    def test_dense_inside_subdomain(self):
        pol = BandedRatePolicy(n=64, k=16, corner=(24, 24, 24))
        assert pol.rate_at((30, 30, 30)) == 1

    def test_near_band(self):
        pol = BandedRatePolicy(n=64, k=16, corner=(24, 24, 24))
        assert pol.rate_at((24 - 4, 30, 30)) == pol.r_near

    def test_mid_band(self):
        pol = BandedRatePolicy(n=256, k=16, corner=(120, 120, 120))
        # distance ~20 (> k/2=8, < 4k=64)
        assert pol.rate_at((100, 125, 125)) == pol.r_mid

    def test_far_band(self):
        pol = BandedRatePolicy(n=256, k=16, corner=(120, 120, 120))
        assert pol.rate_at((10, 125, 125)) == pol.r_far

    def test_boundary_band_wins(self):
        pol = BandedRatePolicy(
            n=64, k=16, corner=(24, 24, 24), boundary_width=2, boundary_rate=1
        )
        assert pol.rate_at((0, 30, 30)) == 1
        assert pol.rate_at((63, 30, 30)) == 1

    def test_region_rate_brackets_point_rates(self):
        pol = BandedRatePolicy(n=64, k=16, corner=(24, 24, 24), boundary_width=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            size = int(rng.integers(1, 8))
            lo = rng.integers(0, 64 - size + 1, size=3)
            rmin, rmax = pol.region_rates(lo[None, :], size)
            for _ in range(10):
                p = tuple(int(rng.integers(a, a + size)) for a in lo)
                assert rmin[0] <= pol.rate_at(p) <= rmax[0]

    def test_invalid_corner(self):
        with pytest.raises(ConfigurationError):
            BandedRatePolicy(n=32, k=16, corner=(20, 0, 0))

    def test_rates_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BandedRatePolicy(n=32, k=8, corner=(0, 0, 0), r_near=0)


class TestSamplingPattern:
    def test_flat_pattern_counts(self):
        pat = build_flat_pattern(32, 8, (8, 8, 8), r=2)
        # dense block present exactly once
        coords = pat.sample_coords
        inside = (
            (coords[:, 0] >= 8) & (coords[:, 0] < 16)
            & (coords[:, 1] >= 8) & (coords[:, 1] < 16)
            & (coords[:, 2] >= 8) & (coords[:, 2] < 16)
        )
        assert inside.sum() == 8**3

    def test_samples_unique(self):
        pat = build_adaptive_pattern(32, 8, (8, 8, 8), r_far=8)
        coords = pat.sample_coords
        assert len(np.unique(coords, axis=0)) == len(coords)

    def test_compression_ratio_gt_one(self):
        pat = build_flat_pattern(32, 8, (8, 8, 8), r=4)
        assert pat.compression_ratio > 2

    def test_axis_coordinate_sets_sorted_unique(self):
        pat = build_adaptive_pattern(32, 8, (16, 16, 16))
        for axis in range(3):
            c = pat.axis_coordinate_set(axis)
            assert np.all(np.diff(c) > 0)
            assert c[0] >= 0 and c[-1] < 32

    def test_axis_sets_cover_all_sample_coords(self):
        pat = build_adaptive_pattern(32, 8, (8, 8, 8))
        coords = pat.sample_coords
        for axis in range(3):
            axis_set = set(pat.axis_coordinate_set(axis).tolist())
            assert set(coords[:, axis].tolist()) <= axis_set

    def test_rate_histogram_totals(self):
        pat = build_flat_pattern(32, 8, (8, 8, 8), r=4)
        assert sum(pat.rate_histogram().values()) == pat.sample_count

    def test_occupancy_slice_subdomain_dense(self):
        pat = build_flat_pattern(32, 8, (8, 8, 8), r=4)
        mask = pat.occupancy_slice(10)
        assert mask[8:16, 8:16].all()

    def test_occupancy_bad_z(self):
        pat = build_flat_pattern(16, 4, (0, 0, 0), r=2)
        with pytest.raises(ConfigurationError):
            pat.occupancy_slice(99)

    def test_metadata_bytes(self):
        pat = build_flat_pattern(16, 4, (0, 0, 0), r=2)
        assert pat.metadata_nbytes() == 20 * pat.num_cells

    def test_denser_rate_means_more_samples(self):
        p2 = build_flat_pattern(32, 8, (8, 8, 8), r=2)
        p8 = build_flat_pattern(32, 8, (8, 8, 8), r=8)
        assert p2.sample_count > p8.sample_count

    def test_table_is_read_only(self):
        pat = build_flat_pattern(16, 4, (0, 0, 0), r=2)
        for array in (pat.table, pat.cell_sizes(), pat.metadata()):
            assert not array.flags.writeable

    @given(st.sampled_from([16, 32]), st.sampled_from([4, 8]), st.sampled_from([2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_pattern_partition_property(self, n, k, r):
        """Cells tile the grid; every grid point belongs to exactly one."""
        if k >= n:
            return
        pat = build_flat_pattern(n, k, (0, 0, 0), r=r)
        total = int((pat.cell_sizes().astype(np.int64) ** 3).sum())
        assert total == n**3


def _per_cell_slice(pattern, z):
    """The occupancy slice, cell by cell."""
    mask = np.zeros((pattern.n, pattern.n), dtype=bool)
    for (x, y, cz, rate, _start), size in zip(
        pattern.table.tolist(), pattern.cell_sizes().tolist()
    ):
        if z in _oracle_axis_coords(cz, size, rate):
            mask[np.ix_(_oracle_axis_coords(x, size, rate), _oracle_axis_coords(y, size, rate))] = True
    return mask


class TestFig3Derivations:
    """The Fig 3 configuration: boundary band, ``min_cell=8``."""

    @pytest.fixture(scope="class")
    def fig3(self):
        return build_adaptive_pattern(
            128, 32, (48, 48, 48), r_near=2, r_mid=8, r_far=16,
            boundary_width=4, boundary_rate=2, min_cell=8,
        )

    @pytest.mark.parametrize("z", [0, 3, 50, 64, 127])
    def test_occupancy_slice_matches_per_cell(self, fig3, z):
        assert np.array_equal(fig3.occupancy_slice(z), _per_cell_slice(fig3, z))

    def test_rate_histogram_matches_per_cell(self, fig3):
        expected = {}
        for rate, size in zip(fig3.table[:, 3].tolist(), fig3.cell_sizes().tolist()):
            expected[rate] = expected.get(rate, 0) + len(_oracle_axis_coords(0, size, rate)) ** 3
        assert list(fig3.rate_histogram().items()) == list(expected.items())
