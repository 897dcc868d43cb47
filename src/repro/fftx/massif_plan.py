"""The paper's Fig 5 program: the MASSIF convolution as an FFTX plan.

Mirrors ``massif_convolution_plan`` from the paper — four sub-plans:

1. ``plan_guru_dft_r2c`` — "RDFT converts small cube into slab" (pruned
   forward transform of the k^3 sub-domain inside the N^3 grid);
2. ``plan_guru_pointwise_c2c`` with the ``complex_scaling`` callback —
   the Green's-function multiply;
3. ``plan_guru_dft_c2r`` with the ``adaptive_sampling`` callback — the
   compressed inverse;
4. ``plan_guru_copy`` with the ``copy_offset`` callback — samples placed
   "in the right place in the output array".

Executing the composed plan is equivalent (tested) to
:class:`repro.core.local_conv.LocalConvolution` — the point of §6: the
same algorithm, specified declaratively instead of hand-written callbacks.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError
from repro.fftx.compose import ComposedPlan, fftx_plan_compose
from repro.fftx.iodim import IODim
from repro.fftx.subplans import (
    plan_guru_copy,
    plan_guru_dft_c2r,
    plan_guru_dft_r2c,
    plan_guru_pointwise_c2c,
)
from repro.octree.sampling import SamplingPattern

#: Persistent top-level plan label from Fig 5.
MY_PLAN_LABEL = 0x1234


def massif_convolution_plan(
    n: int,
    k: int,
    corner: Sequence[int],
    kernel_spectrum: np.ndarray,
    policy: Optional[SamplingPolicy] = None,
    pattern: Optional[SamplingPattern] = None,
    batch: Optional[int] = None,
) -> Tuple[ComposedPlan, SamplingPattern]:
    """Build the Fig 5 plan for one sub-domain convolution.

    Returns the composed plan and the sampling pattern it compresses onto;
    ``fftx_execute(plan, sub_cube)`` yields the
    :class:`~repro.octree.compress.CompressedField` result.
    """
    kernel_spectrum = np.asarray(kernel_spectrum)
    if kernel_spectrum.shape != (n, n, n):
        raise ConfigurationError(
            f"kernel spectrum shape {kernel_spectrum.shape} != ({n},)*3"
        )
    corner = tuple(int(c) for c in corner)
    if pattern is None:
        policy = policy or SamplingPolicy()
        pattern = policy.pattern_for(n, k, corner)
    coords = tuple(pattern.axis_coordinate_set(axis) for axis in range(3))

    dims = tuple(IODim(n=n, data_extent=k, offset=c) for c in corner)
    plans = [
        plan_guru_dft_r2c(dims, "small_cube", "slab", batch=batch),
        plan_guru_pointwise_c2c("slab", "scaled", kernel_spectrum),
        plan_guru_dft_c2r("scaled", "sampled_box", coords),
        plan_guru_copy("sampled_box", "out", pattern),
    ]
    plan = fftx_plan_compose(
        plans, input_name="small_cube", output_name="out", label=MY_PLAN_LABEL
    )
    return plan, pattern
