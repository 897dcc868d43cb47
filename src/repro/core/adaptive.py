"""Content-adaptive input decomposition (the paper's "irregular partitions").

§3.1: "For now, we assume regular volumetric sub-domains but irregular
partitions can also be made", and the gains list includes inputs with
"zero regions".  This module provides both: an octree decomposition of the
*input* that subdivides until blocks are either all-(near-)zero — skipped
entirely — or small enough to process.  The surviving blocks go through
the pipeline's own per-sub-domain step
(:meth:`~repro.core.pipeline.LowCommConvolution3D.convolve_chunks`) and
accumulation, whose pattern cache is keyed by corner and size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.decomposition import SubDomain
from repro.core.local_conv import KernelSpectrum
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError, ShapeError
from repro.util.validation import check_cube, check_positive_int, check_power_of_two


def decompose_by_content(
    field: np.ndarray,
    k_max: int,
    k_min: int = 1,
    threshold: float = 0.0,
) -> List[SubDomain]:
    """Octree-decompose ``field`` into non-zero cubic blocks of size <= k_max.

    Blocks whose max-abs value is <= ``threshold`` are dropped (implicit
    zeros — they contribute nothing to the convolution).  Blocks larger
    than ``k_max`` are split; splitting also stops at ``k_min``.  Indices
    are assigned in discovery (depth-first) order.
    """
    field = check_cube(np.asarray(field), "field")
    n = field.shape[0]
    check_power_of_two(n, "n")
    k_max = check_positive_int(k_max, "k_max")
    k_min = check_positive_int(k_min, "k_min")
    if k_min > k_max:
        raise ConfigurationError(f"k_min={k_min} > k_max={k_max}")
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")

    out: List[SubDomain] = []

    def visit(corner, size):
        block = field[
            corner[0] : corner[0] + size,
            corner[1] : corner[1] + size,
            corner[2] : corner[2] + size,
        ]
        if float(np.max(np.abs(block))) <= threshold:
            return  # implicit zero region: skipped entirely
        if size <= k_max or size <= k_min or size == 1:
            out.append(SubDomain(index=len(out), corner=corner, size=size))
            return
        half = size // 2
        for dx in (0, half):
            for dy in (0, half):
                for dz in (0, half):
                    visit((corner[0] + dx, corner[1] + dy, corner[2] + dz), half)

    visit((0, 0, 0), n)
    return out


@dataclass
class AdaptiveConvolutionResult:
    """Output of an adaptive run: dense result + decomposition statistics."""

    approx: np.ndarray
    subdomains: List[SubDomain]
    skipped_volume: int
    total_samples: int

    @property
    def active_volume(self) -> int:
        return sum(s.size**3 for s in self.subdomains)


class AdaptiveConvolution:
    """Low-communication convolution over a content-adaptive decomposition.

    Unlike :class:`~repro.core.pipeline.LowCommConvolution3D`'s regular
    ``k^3`` tiling, the blocks here are driven by the input's support:
    nothing at all where the field is zero.  The blocks then run through
    that pipeline's :meth:`~LowCommConvolution3D.convolve_chunks` and
    :meth:`~LowCommConvolution3D.accumulate`.
    """

    def __init__(
        self,
        n: int,
        kernel_spectrum: KernelSpectrum,
        policy: Optional[SamplingPolicy] = None,
        batch: Optional[int] = None,
        interpolation: str = "linear",
        k_max: int = 16,
        k_min: int = 2,
        threshold: float = 0.0,
    ):
        self.n = check_positive_int(n, "n")
        self.k_max = check_positive_int(k_max, "k_max")
        self.k_min = check_positive_int(k_min, "k_min")
        self.threshold = float(threshold)
        # The blocks come from decompose_by_content, so the pipeline's own
        # regular decomposition is never used: one n^3 sub-domain keeps it
        # valid for any k_max.
        self.pipeline = LowCommConvolution3D(
            n, n, kernel_spectrum, policy, batch=batch, interpolation=interpolation
        )

    def run(self, field: np.ndarray) -> AdaptiveConvolutionResult:
        """Decompose by content, convolve each block, accumulate."""
        field = np.asarray(field, dtype=np.float64)
        if field.shape != (self.n,) * 3:
            raise ShapeError(f"field shape {field.shape} != ({self.n},)*3")
        subs = decompose_by_content(
            field, k_max=self.k_max, k_min=self.k_min, threshold=self.threshold
        )
        per_domain = list(
            self.pipeline.convolve_chunks((sub, field[sub.slices()]) for sub in subs)
        )
        active = sum(s.size**3 for s in subs)
        return AdaptiveConvolutionResult(
            approx=self.pipeline.accumulate(per_domain),
            subdomains=subs,
            skipped_volume=self.n**3 - active,
            total_samples=sum(f.pattern.sample_count for _s, f in per_domain),
        )
