"""Shared utilities: validation, array helpers, logging, the injectable
clock (:mod:`repro.util.clock`) and the metrics registry
(:mod:`repro.util.metrics`)."""

from repro.util.validation import (
    check_cube,
    check_divides,
    check_positive_int,
    check_power_of_two,
)
from repro.util.arrays import (
    centered_gaussian,
    embed_subcube,
    l2_relative_error,
)

__all__ = [
    "check_cube",
    "check_divides",
    "check_positive_int",
    "check_power_of_two",
    "centered_gaussian",
    "embed_subcube",
    "l2_relative_error",
]
