"""Parameter validation helpers used across the library.

Every public entry point validates its inputs through these helpers so error
messages are uniform and tests can rely on :class:`~repro.errors.ShapeError`
/ :class:`~repro.errors.ConfigurationError` being raised for bad input rather
than a downstream numpy broadcast failure.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, ShapeError


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` as an int, raising if it is not a positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
    return value


def check_power_of_two(value: int, name: str) -> int:
    """Return ``value`` if it is a positive power of two, else raise."""
    value = check_positive_int(value, name)
    if value & (value - 1) != 0:
        raise ConfigurationError(f"{name} must be a power of two, got {value}")
    return value


def check_divides(divisor: int, dividend: int, names: str) -> None:
    """Raise unless ``divisor`` evenly divides ``dividend``."""
    if dividend % divisor != 0:
        raise ConfigurationError(f"{names}: {divisor} does not divide {dividend}")


def check_cube(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``array`` is a 3D cube (equal extents) and return it."""
    arr = np.asarray(array)
    if arr.ndim != 3:
        raise ShapeError(f"{name} must be 3-dimensional, got ndim={arr.ndim}")
    if not (arr.shape[0] == arr.shape[1] == arr.shape[2]):
        raise ShapeError(f"{name} must be a cube, got shape {arr.shape}")
    return arr
