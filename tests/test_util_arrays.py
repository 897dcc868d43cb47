"""Unit + property tests for repro.util.arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.util.arrays import (
    centered_gaussian,
    chunk_slices,
    embed_subcube,
    extract_subcube,
    l2_relative_error,
    linf_relative_error,
    pad_to_shape,
)


class TestPadToShape:
    def test_pads_with_zeros(self):
        out = pad_to_shape(np.ones((2, 3)), (4, 5))
        assert out.shape == (4, 5)
        assert out[:2, :3].sum() == 6
        assert out.sum() == 6

    def test_same_shape_copies(self):
        a = np.ones((2, 2))
        out = pad_to_shape(a, (2, 2))
        out[0, 0] = 7
        assert a[0, 0] == 1  # no aliasing

    def test_rejects_shrink(self):
        with pytest.raises(ShapeError):
            pad_to_shape(np.ones((4,)), (2,))

    def test_rejects_rank_mismatch(self):
        with pytest.raises(ShapeError):
            pad_to_shape(np.ones((4,)), (4, 4))


class TestEmbedExtract:
    def test_roundtrip(self, rng):
        sub = rng.standard_normal((3, 4, 5))
        grid = embed_subcube(sub, (10, 10, 10), (2, 3, 4))
        back = extract_subcube(grid, (2, 3, 4), (3, 4, 5))
        np.testing.assert_array_equal(back, sub)

    def test_embed_zeros_elsewhere(self, rng):
        sub = rng.standard_normal((2, 2, 2))
        grid = embed_subcube(sub, (6, 6, 6), (0, 0, 0))
        assert grid[3:, :, :].sum() == 0

    def test_embed_out_of_bounds(self):
        with pytest.raises(ShapeError):
            embed_subcube(np.ones((4, 4, 4)), (6, 6, 6), (4, 0, 0))

    def test_extract_out_of_bounds(self):
        with pytest.raises(ShapeError):
            extract_subcube(np.ones((6, 6, 6)), (5, 0, 0), (4, 2, 2))

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_embed_preserves_norm(self, k, c):
        sub = np.ones((k, k, k))
        grid = embed_subcube(sub, (8, 8, 8), (c, c, c))
        assert grid.sum() == k**3


class TestErrors:
    def test_l2_zero_for_equal(self, rng):
        a = rng.standard_normal((4, 4))
        assert l2_relative_error(a, a) == 0.0

    def test_l2_known_value(self):
        exact = np.array([3.0, 4.0])
        approx = np.array([3.0, 5.0])
        assert l2_relative_error(approx, exact) == pytest.approx(1.0 / 5.0)

    def test_l2_zero_denominator(self):
        assert l2_relative_error(np.ones(2), np.zeros(2)) == pytest.approx(np.sqrt(2))

    def test_linf(self):
        assert linf_relative_error(np.array([1.0, 2.5]), np.array([1.0, 2.0])) == (
            pytest.approx(0.25)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            l2_relative_error(np.ones(3), np.ones(4))


class TestCenteredGaussian:
    def test_peak_at_center(self):
        g = centered_gaussian(8, 1.0)
        assert np.unravel_index(np.argmax(g), g.shape) == (4, 4, 4)

    def test_peak_value_is_one(self):
        assert centered_gaussian(8, 2.0).max() == pytest.approx(1.0)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ShapeError):
            centered_gaussian(8, 0.0)


class TestChunkSlices:
    def test_tiles_axis(self):
        slices = chunk_slices(8, 2)
        assert len(slices) == 4
        covered = sorted(i for s in slices for i in range(s.start, s.stop))
        assert covered == list(range(8))

    def test_rejects_non_divisor(self):
        with pytest.raises(ShapeError):
            chunk_slices(8, 3)
