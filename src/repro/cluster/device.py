"""Device catalog and roofline-style execution model.

Devices are described by capacity and throughput parameters; execution time
for a kernel is the roofline maximum of its compute time (flops / effective
rate) and its memory time (bytes / bandwidth).  The catalog entries mirror
the hardware of the paper's §4 "Hardware setup" (Bridges at PSC):

- HPE Apollo 2000: 2x Intel Broadwell E5-2683 v4, 128 GB, P100 GPUs.
- HPE Apollo 6500: 2x Xeon Gold 6148, 192 GB, V100 16 GB GPUs.
- DGX-2 AI node: Xeon Platinum 8168, V100 32 GB GPUs.

Effective FFT rates are calibrated so the CPU baseline reproduces the
paper's measured FFTW runtimes (Table 3: 9.0 s for a 512^3 convolution,
72.0 s for 1024^3) — see EXPERIMENTS.md for the calibration record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError

GIB = 1024**3


@dataclass(frozen=True)
class Device:
    """A compute device with capacity and throughput parameters.

    Attributes
    ----------
    name:
        Catalog identifier.
    kind:
        ``"cpu"`` or ``"gpu"``.
    memory_bytes:
        Usable device memory (the OOM boundary for Table 2).
    fft_gflops:
        Effective double-precision throughput achieved on FFT stages
        (GFLOP/s) — an *achieved* rate, not peak, calibrated per device.
    pointwise_gbytes_per_s:
        Streaming bandwidth for pointwise kernels (GB/s).
    transfer_gbytes_per_s:
        Host<->device transfer bandwidth (PCIe/NVLink for GPUs; effectively
        infinite for CPUs operating in host memory).
    launch_overhead_s:
        Fixed overhead per batched kernel/FFT invocation (the reason the
        paper's batch parameter B matters, §5.4).
    concurrency_points:
        Number of simultaneously in-flight transform points needed to
        saturate the device; smaller batches run below peak rate.
    """

    name: str
    kind: str
    memory_bytes: int
    fft_gflops: float
    pointwise_gbytes_per_s: float
    transfer_gbytes_per_s: float
    launch_overhead_s: float
    concurrency_points: float

    def __post_init__(self) -> None:
        if self.kind not in ("cpu", "gpu"):
            raise ConfigurationError(f"device kind must be cpu/gpu, got {self.kind!r}")
        if self.memory_bytes <= 0 or self.fft_gflops <= 0:
            raise ConfigurationError("device capacities must be positive")

    def fft_time(self, flops: float, in_flight_points: float | None = None) -> float:
        """Seconds to execute ``flops`` of FFT work, derated when the
        problem is too small to saturate the device.

        GPUs reach peak throughput only when enough transform points are in
        flight; the derating curve ``min(1, (points / concurrency)^0.28)``
        is a smooth saturation model calibrated against the effective rates
        implied by the paper's Table 3 (6.6 GFLOP/s at N=128 rising to
        ~37 GFLOP/s at N=1024 on a V100 for this callback-heavy pipeline).
        CPUs (``concurrency_points = 0``) run at their flat calibrated rate.
        """
        rate = self.fft_gflops * 1e9
        if in_flight_points is not None and self.concurrency_points > 0:
            utilization = min(
                1.0, (in_flight_points / self.concurrency_points) ** 0.28
            )
            # Even a single pencil achieves a floor fraction of peak.
            rate *= max(utilization, 0.02)
        return flops / rate

    def pointwise_time(self, nbytes: float) -> float:
        """Seconds for a streaming pointwise pass over ``nbytes``."""
        return nbytes / (self.pointwise_gbytes_per_s * 1e9)

    def transfer_time(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` between host and device."""
        return nbytes / (self.transfer_gbytes_per_s * 1e9)


# --- Catalog ---------------------------------------------------------------
# CPU effective FFT rates calibrated to Table 3 FFTW runtimes (~4 GFLOP/s
# achieved on large 3D double-complex transforms, typical for single-socket
# FFTW without AVX-512 tuning).  GPU rates calibrated so the N=512..1024
# speedups land in the paper's 19-24x band.

V100_16GB = Device(
    name="V100-16GB",
    kind="gpu",
    memory_bytes=16 * GIB,
    fft_gflops=40.0,
    pointwise_gbytes_per_s=790.0,
    transfer_gbytes_per_s=12.0,
    launch_overhead_s=1.4e-4,
    concurrency_points=3.4e8,
)

V100_32GB = Device(
    name="V100-32GB",
    kind="gpu",
    memory_bytes=32 * GIB,
    fft_gflops=40.0,
    pointwise_gbytes_per_s=790.0,
    transfer_gbytes_per_s=12.0,
    launch_overhead_s=1.4e-4,
    concurrency_points=3.4e8,
)

P100_16GB = Device(
    name="P100-16GB",
    kind="gpu",
    memory_bytes=16 * GIB,
    fft_gflops=24.0,
    pointwise_gbytes_per_s=550.0,
    transfer_gbytes_per_s=12.0,
    launch_overhead_s=2e-4,
    concurrency_points=3.4e8,
)

XEON_GOLD_6148 = Device(
    name="Xeon-Gold-6148",
    kind="cpu",
    memory_bytes=192 * GIB,
    fft_gflops=4.0,
    pointwise_gbytes_per_s=80.0,
    transfer_gbytes_per_s=1e6,
    launch_overhead_s=0.0,
    concurrency_points=0.0,
)

BRIDGES_APOLLO_2000_CPU = Device(
    name="Broadwell-E5-2683v4",
    kind="cpu",
    memory_bytes=128 * GIB,
    fft_gflops=3.0,
    pointwise_gbytes_per_s=60.0,
    transfer_gbytes_per_s=1e6,
    launch_overhead_s=0.0,
    concurrency_points=0.0,
)

BRIDGES_APOLLO_6500_CPU = XEON_GOLD_6148

DGX2_CPU = Device(
    name="Xeon-Platinum-8168",
    kind="cpu",
    memory_bytes=1536 * GIB,
    fft_gflops=4.5,
    pointwise_gbytes_per_s=90.0,
    transfer_gbytes_per_s=1e6,
    launch_overhead_s=0.0,
    concurrency_points=0.0,
)

DEVICE_CATALOG: Dict[str, Device] = {
    d.name: d
    for d in (
        V100_16GB,
        V100_32GB,
        P100_16GB,
        XEON_GOLD_6148,
        BRIDGES_APOLLO_2000_CPU,
        DGX2_CPU,
    )
}
