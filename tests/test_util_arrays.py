"""Unit + property tests for repro.util.arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.util.arrays import centered_gaussian, embed_subcube, l2_relative_error


class TestEmbedExtract:
    def test_roundtrip(self, rng):
        sub = rng.standard_normal((3, 4, 5))
        grid = embed_subcube(sub, (10, 10, 10), (2, 3, 4))
        back = grid[2:5, 3:7, 4:9]
        np.testing.assert_array_equal(back, sub)

    def test_embed_zeros_elsewhere(self, rng):
        sub = rng.standard_normal((2, 2, 2))
        grid = embed_subcube(sub, (6, 6, 6), (0, 0, 0))
        assert grid[3:, :, :].sum() == 0

    def test_embed_out_of_bounds(self):
        with pytest.raises(ShapeError):
            embed_subcube(np.ones((4, 4, 4)), (6, 6, 6), (4, 0, 0))

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

