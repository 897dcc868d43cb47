"""Sampling-policy hyperparameters (the paper's §5.4 heuristics).

A :class:`SamplingPolicy` bundles the compression hyperparameters — the
banded downsampling rates, boundary band, octree granularity — and builds
the per-sub-domain :class:`~repro.octree.sampling.SamplingPattern`.  The
paper's defaults: "we use r=2 for distance k/2 from sub-domain, increase
it to r=8 for distance >k/2 and <4k, and set it to high values like r=16
or 32 beyond."

:meth:`SamplingPolicy.from_kernel` derives rates from measured kernel
properties (decay exponent, effective support), realizing the paper's
"the user parameterizes the sampling strategy around the sub-domain with
the spread, decay rate of the Green's function and the size of the
sub-domain".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels.properties import effective_support_radius, fit_power_law_decay
from repro.octree.sampling import (
    SamplingPattern,
    build_adaptive_pattern,
    build_flat_pattern,
)
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class SamplingPolicy:
    """Compression hyperparameters for the low-communication pipeline.

    Attributes
    ----------
    r_near, r_mid, r_far:
        Banded downsampling rates (paper §5.4 defaults 2 / 8 / 32).
    boundary_width, boundary_rate:
        Dense re-sampling band at the grid edges (boundary conditions).
    min_cell:
        Octree granularity floor; larger values mean fewer, coarser cells
        (rates clamp to the cell size, so a large ``min_cell`` effectively
        caps the achievable sparsity — the paper's "octree granularity"
        dependence).
    flat:
        If set, ignore the bands and use this single exterior rate (the
        configuration Tables 3 and 4 quote as a scalar ``r``).
    """

    r_near: int = 2
    r_mid: int = 8
    r_far: int = 32
    boundary_width: int = 0
    boundary_rate: int = 1
    min_cell: int = 1
    flat: int | None = None

    def __post_init__(self) -> None:
        for name in ("r_near", "r_mid", "r_far", "boundary_rate", "min_cell"):
            check_positive_int(getattr(self, name), name)
        if self.boundary_width < 0:
            raise ConfigurationError("boundary_width must be >= 0")
        if self.flat is not None:
            check_positive_int(self.flat, "flat")
        if not self.r_near <= self.r_mid <= self.r_far:
            raise ConfigurationError(
                "rates must be non-decreasing with distance: "
                f"{self.r_near} <= {self.r_mid} <= {self.r_far}"
            )

    @classmethod
    def flat_rate(cls, r: int) -> "SamplingPolicy":
        """Single exterior rate ``r`` (Tables 3/4 style)."""
        return cls(flat=r)

    @classmethod
    def from_kernel(
        cls, kernel_spatial: np.ndarray, k: int, error_budget: float = 0.03
    ) -> "SamplingPolicy":
        """Derive a policy from kernel decay properties.

        Heuristic: the effective support radius (99% energy) sets where the
        mid band may start; a steeper decay exponent permits doubling the
        far rate; a tighter error budget halves the near rate.
        """
        check_positive_int(k, "k")
        if not 0.0 < error_budget < 1.0:
            raise ConfigurationError(
                f"error_budget must be in (0, 1), got {error_budget}"
            )
        support = effective_support_radius(kernel_spatial)
        try:
            exponent = fit_power_law_decay(kernel_spatial)
        except ConfigurationError:
            exponent = 1.0
        r_near = 2 if error_budget >= 0.01 else 1
        r_mid = 8 if support <= 2 * k else 4
        r_far = 32 if exponent >= 2.0 else 16
        return cls(r_near=r_near, r_mid=r_mid, r_far=r_far)

    def average_rate(self) -> float:
        """Representative exterior rate for closed-form cost models."""
        if self.flat is not None:
            return float(self.flat)
        # Volume-weighted guess: the mid band dominates until 4k, the far
        # band dominates the remaining volume for large N.
        return float(np.sqrt(self.r_mid * self.r_far))

    def pattern_for(
        self, n: int, k: int, corner: Tuple[int, int, int]
    ) -> SamplingPattern:
        """Build the sampling pattern for one sub-domain."""
        if self.flat is not None:
            return build_flat_pattern(n, k, corner, self.flat)
        return build_adaptive_pattern(
            n,
            k,
            corner,
            r_near=self.r_near,
            r_mid=self.r_mid,
            r_far=self.r_far,
            boundary_width=self.boundary_width,
            boundary_rate=self.boundary_rate,
            min_cell=self.min_cell,
        )


def parse_policy(spec: str) -> SamplingPolicy:
    """Parse a policy spec string: ``"banded"`` or ``"flat:R"``."""
    if spec == "banded":
        return SamplingPolicy()
    if spec.startswith("flat:"):
        try:
            rate = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(f"bad flat policy spec {spec!r}") from None
        return SamplingPolicy.flat_rate(rate)
    raise ConfigurationError(
        f"policy spec must be 'banded' or 'flat:R', got {spec!r}"
    )


def policy_spec(policy: SamplingPolicy) -> str:
    """Inverse of :func:`parse_policy`: the spec string for a policy.

    Only policies expressible as a spec can cross process boundaries (the
    distributed runtime ships configs, not objects); anything customized
    beyond ``banded`` defaults or a flat rate is rejected.
    """
    if policy.flat is not None:
        return f"flat:{policy.flat}"
    if policy == SamplingPolicy():
        return "banded"
    raise ConfigurationError(
        "policy is not expressible as a spec string ('banded' or 'flat:R'); "
        "customized banded rates cannot be shipped to distributed ranks"
    )
