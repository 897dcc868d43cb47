"""repro — low-communication approximate large-scale 3D convolution.

A from-scratch reproduction of Kulkarni, Kovačević & Franchetti,
*A framework for low communication approaches for large scale 3D
convolution* (ICPP Workshops 2022).

Sub-packages
------------
- :mod:`repro.fft` — the pruned staged 3D transform over :mod:`numpy.fft`.
- :mod:`repro.cluster` — simulated HPC substrate (devices, memory, the
  alpha-beta network model, cuFFT workspace model).
- :mod:`repro.octree` — octree-based adaptive multi-resolution sampling.
- :mod:`repro.kernels` — Green's-function-like convolution kernels.
- :mod:`repro.core` — the paper's contribution: the low-communication
  convolution pipeline, cost models, and autotuning.
- :mod:`repro.massif` — the MASSIF Hooke's-law fixed-point solver use case.
- :mod:`repro.baselines` — cost models of the traditional pipelines (the
  executed distributed FFT convolution is :mod:`repro.dist.traditional`).
- :mod:`repro.serve` — the serving layer: a batching convolution service
  with admission control, request lifecycle tracking, and metrics.
- :mod:`repro.dist` — the real rank runtime: one process per rank,
  wire-level sparse exchange over pluggable transports, fault recovery.
- :mod:`repro.analysis` — experiment drivers and report/table rendering.
"""

from repro._version import __version__
from repro.errors import (
    AdmissionError,
    CommunicationError,
    ConfigurationError,
    ConvergenceError,
    DeviceMemoryError,
    PoolError,
    RankFailure,
    ReproError,
    StaleGenerationError,
    RequestTimeoutError,
    ServiceError,
    ShapeError,
    TransportError,
)

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "ShapeError",
    "DeviceMemoryError",
    "CommunicationError",
    "RankFailure",
    "TransportError",
    "PoolError",
    "StaleGenerationError",
    "ConvergenceError",
    "ServiceError",
    "AdmissionError",
    "RequestTimeoutError",
]
