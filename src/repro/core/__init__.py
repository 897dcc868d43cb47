"""The paper's contribution: low-communication approximate 3D convolution.

The pipeline (paper §3, Fig 2):

1. :mod:`repro.core.decomposition` — split the ``N^3`` input into ``k^3``
   sub-domains.
2. :mod:`repro.core.local_conv` — convolve each sub-domain against the
   full-grid kernel *locally*: pruned staged FFT in, pointwise multiply,
   compressed (octree-sampled) staged inverse out.  No all-to-all.
3. :mod:`repro.core.accumulate` — one sparse exchange of compressed
   results; interpolation + summation yields the approximate global
   convolution.
4. :mod:`repro.core.pipeline` — :class:`LowCommConvolution3D` ties it
   together, sub-domain after sub-domain (many cores means many ranks,
   :mod:`repro.dist`).  It is the one in-process execution core: :mod:`repro.core.adaptive` feeds it content-adaptive
   blocks, and the serving executor caches one per compatibility key.
   :mod:`repro.core.distributed_runner` evaluates the same cost
   structure closed-form at the paper's scale.

Support:

- :mod:`repro.core.policy` — :class:`SamplingPolicy` hyperparameters
  (the paper's r-schedule) with kernel-derived defaults.
- :mod:`repro.core.reference` — exact dense convolution (ground truth).
- :mod:`repro.core.costmodel` — Table 1 memory footprints and Eq 1/6
  communication comparisons.
- :mod:`repro.core.autotune` — hyperparameter sweeps under memory/error
  budgets (§5.4).
"""

from repro.core.accumulate import accumulate_global
from repro.core.adaptive import (
    AdaptiveConvolution,
    AdaptiveConvolutionResult,
    decompose_by_content,
)
from repro.core.distributed_runner import (
    ScalingPoint,
    compute_amplification,
    min_feasible_ranks_traditional,
    parallel_efficiency,
    strong_scaling_curve,
)
from repro.core.autotune import AutotuneResult, autotune
from repro.core.checkpoint import checkpoint_from_bytes, checkpoint_to_bytes
from repro.core.costmodel import (
    MemoryFootprint,
    memory_local_fft_bytes,
    memory_traditional_fft_bytes,
    table1_rows,
)
from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.core.local_conv import LocalConvolution
from repro.core.pipeline import ConvolutionResult, LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.core.reference import reference_convolve, reference_subdomain_convolve

__all__ = [
    "DomainDecomposition",
    "SubDomain",
    "AdaptiveConvolution",
    "AdaptiveConvolutionResult",
    "decompose_by_content",
    "ScalingPoint",
    "strong_scaling_curve",
    "compute_amplification",
    "min_feasible_ranks_traditional",
    "parallel_efficiency",
    "SamplingPolicy",
    "LocalConvolution",
    "accumulate_global",
    "LowCommConvolution3D",
    "ConvolutionResult",
    "reference_convolve",
    "reference_subdomain_convolve",
    "MemoryFootprint",
    "memory_traditional_fft_bytes",
    "memory_local_fft_bytes",
    "table1_rows",
    "autotune",
    "AutotuneResult",
    "checkpoint_to_bytes",
    "checkpoint_from_bytes",
]
