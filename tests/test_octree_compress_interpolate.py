"""Tests for CompressedField and the reconstruction operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.octree.compress import CompressedField
from repro.octree.interpolate import reconstruct_box, reconstruct_dense
from repro.octree.sampling import build_adaptive_pattern, build_flat_pattern


@pytest.fixture
def pattern32():
    return build_flat_pattern(32, 8, (12, 12, 12), r=4)


@pytest.fixture
def smooth_field():
    n = 32
    x = np.arange(n) - 15.5
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    return np.exp(-(X**2 + Y**2 + Z**2) / (2 * 8.0**2))


class TestCompressedField:
    def test_from_dense_extracts_sample_values(self, pattern32, smooth_field):
        cf = CompressedField.from_dense(smooth_field, pattern32)
        coords = pattern32.sample_coords
        np.testing.assert_array_equal(
            cf.values, smooth_field[coords[:, 0], coords[:, 1], coords[:, 2]]
        )

    def test_wrong_shape_rejected(self, pattern32):
        with pytest.raises(ShapeError):
            CompressedField.from_dense(np.zeros((16, 16, 16)), pattern32)

    def test_value_count_validated(self, pattern32):
        with pytest.raises(ShapeError):
            CompressedField(pattern=pattern32, values=np.zeros(3))

    def test_nbytes_includes_metadata(self, pattern32, smooth_field):
        cf = CompressedField.from_dense(smooth_field, pattern32)
        assert cf.nbytes == cf.values.nbytes + pattern32.metadata_nbytes()


class TestReconstruction:
    def test_exact_at_sample_points(self, pattern32, smooth_field):
        cf = CompressedField.from_dense(smooth_field, pattern32)
        rec = reconstruct_dense(cf)
        coords = pattern32.sample_coords
        np.testing.assert_allclose(
            rec[coords[:, 0], coords[:, 1], coords[:, 2]], cf.values, atol=1e-10
        )

    def test_constant_field_exactly_reconstructed(self, pattern32):
        """Trilinear interpolation reproduces constants exactly."""
        const = np.full((32, 32, 32), 3.7)
        cf = CompressedField.from_dense(const, pattern32)
        rec = reconstruct_dense(cf)
        np.testing.assert_allclose(rec, const, atol=1e-9)

    def test_linear_field_exactly_reconstructed(self, pattern32):
        """Trilinear interpolation reproduces (tri)linear ramps exactly."""
        x = np.arange(32, dtype=float)
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        field = 2.0 * X - 0.5 * Y + 0.25 * Z + 1.0
        cf = CompressedField.from_dense(field, pattern32)
        rec = reconstruct_dense(cf)
        np.testing.assert_allclose(rec, field, atol=1e-8)

    def test_smooth_field_small_error(self, pattern32, smooth_field):
        cf = CompressedField.from_dense(smooth_field, pattern32)
        rec = reconstruct_dense(cf)
        err = np.linalg.norm(rec - smooth_field) / np.linalg.norm(smooth_field)
        assert err < 0.05

    def test_nearest_method(self, pattern32, smooth_field):
        cf = CompressedField.from_dense(smooth_field, pattern32)
        rec = reconstruct_dense(cf, method="nearest")
        err = np.linalg.norm(rec - smooth_field) / np.linalg.norm(smooth_field)
        assert err < 0.25  # coarser than linear, still bounded

    def test_nearest_worse_than_linear(self, smooth_field):
        pat = build_flat_pattern(32, 8, (12, 12, 12), r=4)
        cf = CompressedField.from_dense(smooth_field, pat)
        e_lin = np.linalg.norm(reconstruct_dense(cf) - smooth_field)
        e_near = np.linalg.norm(reconstruct_dense(cf, method="nearest") - smooth_field)
        assert e_lin < e_near

    def test_bad_method(self, pattern32, smooth_field):
        cf = CompressedField.from_dense(smooth_field, pattern32)
        with pytest.raises(ConfigurationError):
            reconstruct_dense(cf, method="cubic")

    def test_box_consistent_with_dense(self, pattern32, smooth_field):
        cf = CompressedField.from_dense(smooth_field, pattern32)
        full = reconstruct_dense(cf)
        box = reconstruct_box(cf, (5, 10, 15), (8, 6, 4))
        np.testing.assert_allclose(box, full[5:13, 10:16, 15:19], atol=1e-12)

    def test_box_out_of_range(self, pattern32, smooth_field):
        cf = CompressedField.from_dense(smooth_field, pattern32)
        with pytest.raises(ShapeError):
            reconstruct_box(cf, (30, 0, 0), (8, 4, 4))

    def test_adaptive_pattern_reconstruction(self, smooth_field):
        pat = build_adaptive_pattern(
            32, 8, (12, 12, 12), r_near=2, r_mid=4, r_far=8, min_cell=2
        )
        cf = CompressedField.from_dense(smooth_field, pat)
        rec = reconstruct_dense(cf)
        err = np.linalg.norm(rec - smooth_field) / np.linalg.norm(smooth_field)
        assert err < 0.05

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_error_decreases_with_density_property(self, seed):
        """Finer exterior rates never reconstruct worse (smooth fields)."""
        r = np.random.default_rng(seed)
        n = 16
        x = np.arange(n) - (n - 1) / 2
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        width = 4.0 + 4.0 * r.random()
        field = np.exp(-(X**2 + Y**2 + Z**2) / (2 * width**2))
        errs = []
        for rate in (2, 4):
            pat = build_flat_pattern(n, 4, (4, 4, 4), r=rate)
            cf = CompressedField.from_dense(field, pat)
            rec = reconstruct_dense(cf)
            errs.append(float(np.linalg.norm(rec - field)))
        assert errs[0] <= errs[1] + 1e-9
