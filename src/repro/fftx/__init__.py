"""A miniature FFTX-style plan DSL (paper §6, Fig 5).

FFTX "extends the FFTW interface into an embedded DSL": computations are
*plans* composed of sub-plans (transforms, pointwise operations, data
movement), with user callbacks attached at stage boundaries, and a backend
that optimizes the composed plan as a whole.  This package reproduces the
API semantics the paper sketches:

- :mod:`repro.fftx.iodim` — dimension descriptors (rank, batch).
- :mod:`repro.fftx.callbacks` — the callback registry (``complex_scaling``,
  ``adaptive_sampling``, ``copy_offset`` from Fig 5, plus user-defined).
- :mod:`repro.fftx.subplans` — ``plan_guru_dft_r2c``,
  ``plan_guru_pointwise_c2c``, ``plan_guru_dft_c2r``, ``plan_guru_copy``.
- :mod:`repro.fftx.compose` — ``fftx_plan_compose`` and the top-level plan.
- :mod:`repro.fftx.execute` — the executor (buffer environment, workspace
  ledger, observe-mode stats).
- :mod:`repro.fftx.optimize` — the "SPIRAL-lite" pass: stage fusion,
  workspace reuse, and a cost report (in place of code generation).
- :mod:`repro.fftx.massif_plan` — the paper's Fig 5 program, runnable:
  the MASSIF pruned convolution as four composed sub-plans.
"""

from repro.fftx.callbacks import register_callback
from repro.fftx.compose import ComposedPlan, fftx_plan_compose
from repro.fftx.execute import ExecutionStats, fftx_execute
from repro.fftx.iodim import IODim
from repro.fftx.massif_plan import massif_convolution_plan
from repro.fftx.modes import (
    FFTX_ESTIMATE,
    FFTX_HIGH_PERFORMANCE,
    FFTX_MODE_OBSERVE,
    fftx_init,
    fftx_shutdown,
)
from repro.fftx.optimize import OptimizationReport, optimize_plan
from repro.fftx.subplans import (
    plan_guru_copy,
    plan_guru_dft_c2r,
    plan_guru_dft_r2c,
    plan_guru_pointwise_c2c,
)

__all__ = [
    "IODim",
    "register_callback",
    "plan_guru_dft_r2c",
    "plan_guru_pointwise_c2c",
    "plan_guru_dft_c2r",
    "plan_guru_copy",
    "fftx_plan_compose",
    "ComposedPlan",
    "fftx_execute",
    "ExecutionStats",
    "optimize_plan",
    "OptimizationReport",
    "massif_convolution_plan",
    "fftx_init",
    "fftx_shutdown",
    "FFTX_MODE_OBSERVE",
    "FFTX_ESTIMATE",
    "FFTX_HIGH_PERFORMANCE",
]
