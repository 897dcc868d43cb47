"""Tests for rectangular ("irregular") sub-domain support (paper §3.1)."""

import numpy as np
import pytest

from repro.core.local_conv import LocalConvolution
from repro.core.policy import SamplingPolicy
from repro.core.reference import reference_convolve
from repro.errors import ConfigurationError, ShapeError
from repro.kernels.gaussian import GaussianKernel
from repro.octree.interpolate import reconstruct_dense
from repro.octree.sampling import BandedRatePolicy, build_box_pattern
from repro.util.arrays import embed_subcube, l2_relative_error


@pytest.fixture
def setup(rng):
    n = 32
    spec = GaussianKernel(n=n, sigma=2.0).spectrum()
    shape = (8, 16, 4)
    corner = (4, 8, 12)
    sub = rng.standard_normal(shape)
    return n, spec, shape, corner, sub


def _box_policy(n, shape, corner):
    """The banded schedule around a box, as the box builder sets it up."""
    return BandedRatePolicy(
        n=n, k=max(shape), corner=corner, boundary_width=0, shape=shape
    )


class TestBoxRatePolicy:
    def test_band_unit_is_max_edge(self):
        pat = build_box_pattern(32, (8, 16, 4), (0, 0, 0))
        assert pat.subdomain_size == 16
        with pytest.raises(ConfigurationError, match="largest edge"):
            BandedRatePolicy(n=32, k=8, corner=(0, 0, 0), shape=(8, 16, 4))

    def test_inside_box_dense(self):
        pol = _box_policy(32, (8, 16, 4), (4, 8, 12))
        assert pol.base_rate(0) == 1
        assert pol.rate_at((11, 23, 15)) == 1

    def test_region_rate_brackets_bands(self):
        pol = _box_policy(32, (8, 8, 8), (0, 0, 0))
        rmin, rmax = pol.region_rates(np.zeros((1, 3)), 32)
        assert rmin[0] == 1
        assert rmax[0] >= pol.r_mid

    def test_box_outside_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            _box_policy(16, (8, 8, 8), (12, 0, 0))


class TestBoxPattern:
    def test_partition_covers_grid(self, setup):
        n, _spec, shape, corner, _sub = setup
        pat = build_box_pattern(n, shape, corner, min_cell=2)
        assert int((pat.cell_sizes().astype(np.int64) ** 3).sum()) == n**3

    def test_box_region_dense(self, setup):
        n, _spec, shape, corner, _sub = setup
        pat = build_box_pattern(n, shape, corner, min_cell=1)
        coords = pat.sample_coords
        inside = np.ones(len(coords), dtype=bool)
        for d in range(3):
            inside &= (coords[:, d] >= corner[d]) & (
                coords[:, d] < corner[d] + shape[d]
            )
        assert inside.sum() == np.prod(shape)

    def test_compresses(self, setup):
        n, _spec, shape, corner, _sub = setup
        pat = build_box_pattern(n, shape, corner, r_near=2, r_mid=4, r_far=8)
        assert pat.compression_ratio > 3


class TestRectangularConvolution:
    def test_lossless_exact(self, setup):
        n, spec, shape, corner, sub = setup
        pat = build_box_pattern(n, shape, corner, r_near=1, r_mid=1, r_far=1)
        lc = LocalConvolution(n, spec, SamplingPolicy(), batch=256)
        cf = lc.convolve(sub, corner, pattern=pat)
        exact = reference_convolve(embed_subcube(sub, (n,) * 3, corner), spec)
        np.testing.assert_allclose(reconstruct_dense(cf), exact, atol=1e-10)

    def test_lossy_error_bounded(self, setup):
        n, spec, shape, corner, sub = setup
        pat = build_box_pattern(n, shape, corner, r_near=2, r_mid=4, r_far=8,
                                min_cell=2)
        lc = LocalConvolution(n, spec, SamplingPolicy(), batch=256)
        cf = lc.convolve(sub, corner, pattern=pat)
        exact = reference_convolve(embed_subcube(sub, (n,) * 3, corner), spec)
        assert l2_relative_error(reconstruct_dense(cf), exact) < 0.15

    def test_rect_without_pattern_rejected(self, setup):
        n, spec, _shape, corner, sub = setup
        lc = LocalConvolution(n, spec, SamplingPolicy())
        with pytest.raises(ConfigurationError, match="rectangular"):
            lc.convolve(sub, corner)

    def test_rect_outside_grid_rejected(self, setup):
        n, spec, shape, _corner, sub = setup
        lc = LocalConvolution(n, spec, SamplingPolicy())
        with pytest.raises(ShapeError):
            lc.convolve(sub, (28, 0, 0))

    def test_mixed_boxes_accumulate(self, setup, rng):
        """Two disjoint boxes of different shapes sum to the full result."""
        from repro.core.accumulate import accumulate_global

        n, spec, *_ = setup
        boxes = [((8, 4, 8), (0, 0, 0)), ((4, 8, 4), (16, 16, 16))]
        field = np.zeros((n, n, n))
        fields = []
        lc = LocalConvolution(n, spec, SamplingPolicy(), batch=256)
        for shape, corner in boxes:
            block = rng.standard_normal(shape)
            field[tuple(slice(c, c + s) for c, s in zip(corner, shape))] = block
            pat = build_box_pattern(n, shape, corner, r_near=1, r_mid=1, r_far=1)
            fields.append(lc.convolve(block, corner, pattern=pat))
        total = accumulate_global(fields)
        exact = reference_convolve(field, spec)
        np.testing.assert_allclose(total, exact, atol=1e-9)
