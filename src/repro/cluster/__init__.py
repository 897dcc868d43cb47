"""Simulated HPC substrate: devices, memory, network, communicator.

The paper's evaluation ran on Bridges (P100/V100 GPUs, Xeon CPUs) with
cuFFT/FFTW and MPI.  None of that hardware is available to this
reproduction, so this package provides faithful *models* that the real
algorithm code runs against:

- :mod:`repro.cluster.device` — a catalog of the paper's compute devices
  with capacity/throughput parameters and a roofline-style execution-time
  model.
- :mod:`repro.cluster.memory` — a byte-exact allocation ledger with
  capacity enforcement; running the actual pipeline allocation sequence
  against it reproduces the paper's memory-capacity results (Tables 1, 2,
  4).
- :mod:`repro.cluster.network` — the alpha-beta communication model (Eq 2)
  and all-to-all cost (Eq 1).
- :mod:`repro.cluster.comm` — a simulated MPI-style communicator: P ranks,
  real numpy buffer exchange, a traffic ledger counting rounds and bytes
  (the evidence behind Fig 1), and alpha-beta time charging.
- :mod:`repro.cluster.cufft_model` — cuFFT plan workspace estimator
  (the estimated-vs-actual gap of Table 4).
- :mod:`repro.cluster.cost` — closed-form cost models: Eqs 1, 2, 6 and
  the pipeline execution-time model calibrated against Table 3.
"""

from repro.cluster.comm import SimulatedComm, TrafficLedger
from repro.cluster.cost import (
    comm_time_ours,
    comm_time_traditional_fft,
    sparse_sample_count,
)
from repro.cluster.cufft_model import CufftWorkspaceModel
from repro.cluster.device import (
    BRIDGES_APOLLO_2000_CPU,
    BRIDGES_APOLLO_6500_CPU,
    DGX2_CPU,
    DEVICE_CATALOG,
    Device,
    P100_16GB,
    V100_16GB,
    V100_32GB,
    XEON_GOLD_6148,
)
from repro.cluster.memory import Allocation, MemoryTracker
from repro.cluster.network import Link, Network
from repro.cluster.trace import (
    ComputeCommBreakdown,
    accelerate_compute_fraction,
    distributed_fft_breakdown,
    gpu_acceleration_story,
)

__all__ = [
    "SimulatedComm",
    "TrafficLedger",
    "comm_time_ours",
    "comm_time_traditional_fft",
    "sparse_sample_count",
    "CufftWorkspaceModel",
    "Device",
    "DEVICE_CATALOG",
    "V100_16GB",
    "V100_32GB",
    "P100_16GB",
    "XEON_GOLD_6148",
    "BRIDGES_APOLLO_2000_CPU",
    "BRIDGES_APOLLO_6500_CPU",
    "DGX2_CPU",
    "Allocation",
    "MemoryTracker",
    "Link",
    "Network",
    "ComputeCommBreakdown",
    "accelerate_compute_fraction",
    "distributed_fft_breakdown",
    "gpu_acceleration_story",
]
