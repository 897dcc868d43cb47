"""Baselines: cost models of the traditional convolution pipelines.

The executed Fig 1(a) baseline — slab- and pencil-decomposed distributed
FFT convolution, 2-4 all-to-all rounds — moves real bytes, so it lives
with the rank runtime in :mod:`repro.dist.traditional`.  Here:

- :mod:`repro.baselines.heffte_like` — an asynchronous-overlap cost model
  in the spirit of heFFTe: same all-to-all rounds, partially hidden, so it
  "can scale to a greater number of nodes ... but eventually also reaches
  a scalability limitation" (§2.1).
- :mod:`repro.baselines.single_gpu` — plain dense cuFFT-style convolution
  on one simulated GPU; its memory model yields the paper's 1024^3
  single-GPU ceiling that our method extends 8x to 2048^3.
"""

from repro.baselines.heffte_like import heffte_comm_time, scaling_curve
from repro.baselines.single_gpu import (
    dense_gpu_conv_bytes,
    max_dense_grid,
    run_dense_gpu_convolution,
)

__all__ = [
    "heffte_comm_time",
    "scaling_curve",
    "dense_gpu_conv_bytes",
    "max_dense_grid",
    "run_dense_gpu_convolution",
]
