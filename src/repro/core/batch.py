"""Batch processing of many independent convolutions.

"Other simulations may require relatively small sizes (around 256^3 data
points) but many instances of 3D FFTs per iteration" (paper conclusion),
and §5.1: "for smaller 3D grids, the method retains its advantage by
batch processing multiple 3D convolutions on a GPU, optimizing cluster
usage with fewer resources."

:class:`BatchConvolver` amortizes everything shareable across instances —
the sampling patterns (per sub-domain corner), their per-axis coordinate
sets and gather indices, and the kernel spectrum — so per-instance cost is
pure transform work.  Instances may also be packed onto one simulated
device under a shared memory budget, the paper's cluster-usage argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.cluster.memory import MemoryTracker
from repro.core.local_conv import KernelSpectrum
from repro.core.pipeline import ConvolutionResult, LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError, ShapeError


@dataclass
class BatchResult:
    """Results of a batch run plus the shared-state statistics."""

    results: List[ConvolutionResult]
    patterns_built: int
    peak_memory_bytes: int

    @property
    def total_samples(self) -> int:
        return sum(r.total_samples for r in self.results)


class BatchConvolver:
    """Many convolution instances through one shared pipeline.

    Parameters mirror :class:`LowCommConvolution3D`; the pattern cache is
    owned here so it persists across instances (pattern construction is
    the per-corner fixed cost the paper's batch-processing argument
    amortizes).
    """

    def __init__(
        self,
        n: int,
        k: int,
        kernel_spectrum: KernelSpectrum,
        policy: Optional[SamplingPolicy] = None,
        batch: Optional[int] = None,
        memory: Optional[MemoryTracker] = None,
        real_kernel: Optional[bool] = None,
    ):
        self.pipeline = LowCommConvolution3D(
            n,
            k,
            kernel_spectrum,
            policy,
            batch=batch,
            memory=memory,
            real_kernel=real_kernel,
        )
        self.memory = memory

    def run(
        self,
        fields: Sequence[np.ndarray],
        mode: str = "serial",
        max_workers: Optional[int] = None,
    ) -> BatchResult:
        """Convolve every field; the pattern cache persists across them.

        ``mode="parallel"`` runs each instance's sub-domain fan-out on a
        process pool (:meth:`LowCommConvolution3D.run_parallel`, bitwise
        identical to serial); ``max_workers`` bounds the pool.
        """
        if mode not in ("serial", "parallel"):
            raise ConfigurationError(
                f"mode must be 'serial' or 'parallel', got {mode!r}"
            )
        if not len(fields):
            raise ConfigurationError("batch needs at least one field")
        n = self.pipeline.n
        results: List[ConvolutionResult] = []
        for field in fields:
            field = np.asarray(field)
            if field.shape != (n,) * 3:
                raise ShapeError(
                    f"batch field shape {field.shape} != grid ({n},)*3"
                )
            if mode == "parallel":
                results.append(self.pipeline.run_parallel(field, max_workers))
            else:
                results.append(self.pipeline.run_serial(field))
        return BatchResult(
            results=results,
            patterns_built=len(self.pipeline._pattern_cache),
            peak_memory_bytes=self.memory.peak_bytes if self.memory else 0,
        )

    def instances_per_device(self, capacity_bytes: int) -> int:
        """How many concurrent instances fit one device of ``capacity``.

        Each concurrent instance needs its slab + sampled intermediates
        (the Table 1 working set); the paper's batching claim is that this
        is many instances for small grids — e.g. dozens of 256^3 instances
        on a 16 GB V100 where the dense method fits only a few.
        """
        if capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        n = self.pipeline.n
        k = self.pipeline.k
        policy = self.pipeline.policy
        sz = None
        # Working set per instance: slab + z-sampled intermediate.
        pattern = policy.pattern_for(n, k, (0, 0, 0))
        sz = len(pattern.axis_coordinate_set(2))
        per_instance = 16 * n * n * k + 16 * n * n * sz
        return max(0, capacity_bytes // per_instance)
