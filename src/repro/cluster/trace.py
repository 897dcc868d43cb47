"""Compute-to-communication analysis (the paper's §2.1 motivation numbers).

"A study in [3] shows that when a 1024^3 FFT was computed in parallel on 4
CPU nodes, 49.45% of the runtime is spent in communication and only 11.77%
in computing the FFT.  When accelerated using 4 GPU nodes, the
communication time was 97% of the runtime, even though computation was 43x
faster."

The 97% is an arithmetic consequence of the first two numbers: if the
communication time is fixed and everything else accelerates by ``a``, the
communication fraction ``c`` becomes ``c / (c + (1 - c)/a)``.  This module
provides that projection, a per-category timeline built from
:class:`~repro.util.clock.ManualClock` category totals, and a model-based
fraction estimator for the distributed FFT baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster.cost import comm_time_traditional_fft, fft_stage_flops
from repro.cluster.device import Device
from repro.cluster.network import Link
from repro.errors import ConfigurationError
from repro.util.clock import ManualClock


def accelerate_compute_fraction(comm_fraction: float, accel: float) -> float:
    """New communication fraction after accelerating all *non*-communication
    work by ``accel`` (the paper's 49.45% -> 97% projection)."""
    if not 0.0 <= comm_fraction <= 1.0:
        raise ConfigurationError(
            f"comm_fraction must be in [0, 1], got {comm_fraction}"
        )
    if accel <= 0:
        raise ConfigurationError(f"accel must be positive, got {accel}")
    c = comm_fraction
    return c / (c + (1.0 - c) / accel)


@dataclass
class ComputeCommBreakdown:
    """Time split of a distributed FFT into compute / communication / other."""

    compute_s: float
    comm_s: float
    other_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s + self.other_s

    @property
    def comm_fraction(self) -> float:
        total = self.total_s
        return self.comm_s / total if total else 0.0

    @property
    def compute_fraction(self) -> float:
        total = self.total_s
        return self.compute_s / total if total else 0.0


def distributed_fft_breakdown(
    n: int,
    p: int,
    device: Device,
    link: Link,
    packing_overhead: float = 3.0,
) -> ComputeCommBreakdown:
    """Model the §2.1 split for one distributed 3D FFT.

    ``packing_overhead`` models transpose packing/unpacking and other
    non-FFT work as a multiple of the raw wire time (the study behind the
    paper's numbers attributes ~39% of runtime to neither FFT nor MPI).
    For GPUs, each all-to-all additionally stages its data across the
    host-device bus in both directions — the extra transfers the paper's
    §2.1 calls out ("data transfers into and out of the GPU are needed
    repeatedly"); that time is charged to the communication side.
    """
    flops = 3 * fft_stage_flops(n * n, n)
    compute = device.fft_time(flops / p, in_flight_points=float(n**3 / p))
    comm = comm_time_traditional_fft(
        n, p, link, bytes_per_point=16, include_latency=True
    )
    if device.kind == "gpu":
        staged_bytes = 2 * 2 * 16 * (n**3 / p)  # 2 stages x out-and-back
        comm += device.transfer_time(staged_bytes)
    other = packing_overhead * comm / 2.0
    return ComputeCommBreakdown(compute_s=compute, comm_s=comm, other_s=other)


def clock_breakdown_fractions(clock: ManualClock) -> Dict[str, float]:
    """Per-category time fractions from a simulated clock's totals."""
    breakdown = clock.breakdown()
    total = sum(breakdown.values())
    if total == 0.0:
        return {}
    return {k: v / total for k, v in breakdown.items()}


def gpu_acceleration_story(
    cpu_comm_fraction: float = 0.4945,
    cpu_fft_fraction: float = 0.1177,
    gpu_speedup: float = 43.0,
) -> List[Tuple[str, float]]:
    """Reproduce the paper's §2.1 numbers as a labeled series.

    Returns rows ``(label, communication fraction)`` for the CPU baseline
    and the GPU projection; with the paper's inputs the projection lands at
    ~0.977 — their "97%".
    """
    if cpu_comm_fraction + cpu_fft_fraction > 1.0:
        raise ConfigurationError("fractions exceed 1")
    gpu_fraction = accelerate_compute_fraction(cpu_comm_fraction, gpu_speedup)
    return [
        ("4 CPU nodes (measured in [3])", cpu_comm_fraction),
        (f"4 GPU nodes (compute {gpu_speedup:.0f}x faster)", gpu_fraction),
    ]
