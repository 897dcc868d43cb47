"""Tests for octree construction and the banded sampling patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.octree.sampling import (
    BandedRatePolicy,
    build_adaptive_pattern,
    build_flat_pattern,
)
from repro.octree.tree import Octree


def _uniform_rate(rate):
    return lambda lo, hi: (rate, rate)


def assert_partition(tree):
    """The leaves tile the grid exactly: every point in one leaf."""
    seen = np.zeros((tree.n,) * 3, dtype=np.int64)
    for leaf in tree.leaves:
        seen[tuple(slice(c, c + leaf.size) for c in leaf.corner)] += 1
    assert (seen == 1).all()


class TestOctreeBuild:
    def test_uniform_rate_single_leaf(self):
        tree = Octree.build(16, _uniform_rate(2))
        assert tree.num_leaves == 1
        assert tree.leaves[0].rate == 2

    def test_split_on_nonuniform(self):
        def rate(lo, hi):
            # left half (x < 8) dense, right half sparse
            if hi[0] <= 8:
                return (1, 1)
            if lo[0] >= 8:
                return (4, 4)
            return (1, 4)

        tree = Octree.build(16, rate)
        assert tree.num_leaves == 8
        assert_partition(tree)

    def test_partition_valid(self):
        pol = BandedRatePolicy(n=32, k=8, corner=(8, 8, 8))
        tree = Octree.build(32, pol.region_rate)
        assert_partition(tree)

    def test_non_pow2_rejected(self):
        with pytest.raises(ConfigurationError):
            Octree.build(12, _uniform_rate(1))

    def test_min_cell_respected(self):
        pol = BandedRatePolicy(n=32, k=8, corner=(8, 8, 8))
        tree = Octree.build(32, pol.region_rate, min_cell=4)
        assert min(leaf.size for leaf in tree.leaves) >= 4

    def test_rate_clamped_to_cell_size(self):
        tree = Octree.build(8, _uniform_rate(64))
        assert tree.leaves[0].rate <= 8

    def test_bad_rate_fn(self):
        with pytest.raises(ConfigurationError):
            Octree.build(8, _uniform_rate(0))


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
            lo = rng.integers(0, 56, size=3)
            size = int(rng.integers(1, 8))
            hi = np.minimum(lo + size, 64)
            rmin, rmax = pol.region_rate(tuple(lo), tuple(hi))
            for _ in range(10):
                p = tuple(int(rng.integers(l, h)) for l, h in zip(lo, hi))
                assert rmin <= pol.rate_at(p) <= rmax

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

    @given(st.sampled_from([16, 32]), st.sampled_from([4, 8]), st.sampled_from([2, 4]))
    @settings(max_examples=15, deadline=None)
    def test_pattern_partition_property(self, n, k, r):
        """Cells tile the grid; every grid point belongs to exactly one."""
        if k >= n:
            return
        pat = build_flat_pattern(n, k, (0, 0, 0), r=r)
        total = sum(c.size**3 for c in pat.cells)
        assert total == n**3
