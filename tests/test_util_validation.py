"""Unit tests for repro.util.validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.util.validation import (
    check_cube,
    check_divides,
    check_positive_int,
    check_power_of_two,
)


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(-2, "x")

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_error_message_contains_name(self):
        with pytest.raises(ConfigurationError, match="my_param"):
            check_positive_int(-1, "my_param")


class TestCheckPowerOfTwo:
    @pytest.mark.parametrize("n", [1, 2, 4, 64, 1024])
    def test_accepts_powers(self, n):
        assert check_power_of_two(n, "n") == n

    @pytest.mark.parametrize("n", [3, 6, 12, 100])
    def test_rejects_non_powers(self, n):
        with pytest.raises(ConfigurationError):
            check_power_of_two(n, "n")


class TestCheckDivides:
    def test_accepts_divisor(self):
        check_divides(4, 16, "d")

    def test_rejects_non_divisor(self):
        with pytest.raises(ConfigurationError):
            check_divides(5, 16, "d")


class TestCheckCube:
    def test_accepts_cube(self):
        arr = np.zeros((4, 4, 4))
        assert check_cube(arr, "a").shape == (4, 4, 4)

    def test_rejects_rank2(self):
        with pytest.raises(ShapeError):
            check_cube(np.zeros((4, 4)), "a")

    def test_rejects_non_cubic(self):
        with pytest.raises(ShapeError):
            check_cube(np.zeros((4, 4, 5)), "a")

