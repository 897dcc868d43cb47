"""Shared utilities: validation, array helpers, logging, the injectable
clock (:mod:`repro.util.clock`) and the metrics registry
(:mod:`repro.util.metrics`)."""

from repro.util.validation import (
    check_cube,
    check_divides,
    check_dtype,
    check_positive_int,
    check_power_of_two,
    check_probability,
)
from repro.util.arrays import (
    centered_gaussian,
    embed_subcube,
    extract_subcube,
    l2_relative_error,
    linf_relative_error,
    pad_to_shape,
)

__all__ = [
    "check_cube",
    "check_divides",
    "check_dtype",
    "check_positive_int",
    "check_power_of_two",
    "check_probability",
    "centered_gaussian",
    "embed_subcube",
    "extract_subcube",
    "l2_relative_error",
    "linf_relative_error",
    "pad_to_shape",
]
