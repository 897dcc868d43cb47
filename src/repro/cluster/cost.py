"""Closed-form cost models: Eqs 1, 2, 6 and the pipeline time model.

Three families of model live here:

1. **Communication time** — the paper's Eq 1 (traditional distributed FFT:
   two all-to-all stages moving ``N^3/P`` points each), Eq 2 (alpha-beta
   message time), and Eq 6 (our method: one exchange of the sub-domain plus
   the sparse samples).
2. **Flop counts** — ``5 * n * log2(n)`` per length-``n`` 1D FFT (the
   standard complex radix FFT count), composed per stage exactly as the
   staged pipeline executes them.
3. **Execution time** — roofline evaluation of those counts on a
   :class:`~repro.cluster.device.Device`, calibrated so the CPU dense
   convolution reproduces the paper's measured FFTW column of Table 3
   (9.0 s at N=512, 72 s at N=1024) and the GPU pipeline lands in the
   paper's speedup band.  Calibration constants and residuals are recorded
   in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.cluster.device import Device
from repro.cluster.network import Link
from repro.errors import ConfigurationError

COMPLEX_BYTES = 16
REAL_BYTES = 8


# --------------------------------------------------------------------------
# Communication models (paper Eqs 1, 2, 6)
# --------------------------------------------------------------------------


def comm_time_traditional_fft(
    n: int,
    p: int,
    link: Link,
    bytes_per_point: int = REAL_BYTES,
    stages: int = 2,
    include_latency: bool = False,
) -> float:
    """Eq 1: per-node communication time of a distributed 3D FFT.

    ``T = stages * N^3 / (P * beta_link)`` — each of the ``stages``
    all-to-all steps moves each node's ``N^3/P`` points across the network.
    With ``include_latency`` the alpha term of Eq 2 is added per peer
    message per stage (the pairwise all-to-all schedule).
    """
    _check_pos(n, "n")
    _check_pos(p, "p")
    volume_bytes = (n**3 / p) * bytes_per_point
    t = stages * volume_bytes / link.bandwidth_bytes_per_s
    if include_latency and p > 1:
        t += stages * (p - 1) * link.alpha_s
    return t


def sparse_sample_count(n: int, k: int, r: float) -> float:
    """Number of sparse exterior samples: ``(N^3 - k^3) / r^3`` (paper §5.1)."""
    _check_pos(n, "n")
    _check_pos(k, "k")
    if r <= 0:
        raise ConfigurationError(f"r must be positive, got {r}")
    if k > n:
        raise ConfigurationError(f"k={k} exceeds n={n}")
    return (n**3 - k**3) / r**3


def comm_time_ours(
    n: int,
    k: int,
    r: float,
    p: int,
    link: Link,
    bytes_per_point: int = REAL_BYTES,
    include_latency: bool = False,
) -> float:
    """Eq 6: ``T = (k^3 + sparse_samples) / (P * beta_link)``.

    One accumulation exchange of the dense sub-domain result plus the
    sparse exterior samples, instead of ``stages`` full-volume all-to-alls.
    """
    _check_pos(p, "p")
    points = k**3 + sparse_sample_count(n, k, r)
    t = (points / p) * bytes_per_point / link.bandwidth_bytes_per_s
    if include_latency and p > 1:
        t += (p - 1) * link.alpha_s
    return t


# --------------------------------------------------------------------------
# Flop counts
# --------------------------------------------------------------------------

def fft_stage_flops(num_pencils: float, length: int) -> float:
    """Flops for ``num_pencils`` 1D complex FFTs of ``length`` (5 n log2 n)."""
    _check_pos(length, "length")
    if num_pencils < 0:
        raise ConfigurationError(f"num_pencils must be >= 0, got {num_pencils}")
    return 5.0 * num_pencils * length * math.log2(length) if length > 1 else 0.0


def dense_conv_flops(n: int) -> float:
    """Dense FFT convolution: forward + inverse 3D FFT + pointwise multiply."""
    _check_pos(n, "n")
    one_fft = 3 * fft_stage_flops(n * n, n)  # three 1D sweeps of n^2 pencils
    pointwise = 6.0 * n**3  # complex multiply = 6 real flops/point
    return 2 * one_fft + pointwise


@dataclass(frozen=True)
class PrunedConvWork:
    """Stage-by-stage flop breakdown of the pruned local convolution.

    Mirrors the executed pipeline: forward x/y sweeps on the pruned input,
    full forward z sweep (pencil-batched), pointwise kernel multiply, full
    inverse z sweep followed by z-sampling, then inverse y and x sweeps on
    the shrinking sampled intermediate.
    """

    n: int
    k: int
    sz: int  # retained z coordinates after compression
    sy: int  # retained y coordinates

    @property
    def forward_x(self) -> float:
        return fft_stage_flops(self.k * self.k, self.n)

    @property
    def forward_y(self) -> float:
        return fft_stage_flops(self.n * self.k, self.n)

    @property
    def forward_z(self) -> float:
        return fft_stage_flops(self.n * self.n, self.n)

    @property
    def pointwise(self) -> float:
        return 6.0 * self.n**3

    @property
    def inverse_z(self) -> float:
        return fft_stage_flops(self.n * self.n, self.n)

    @property
    def inverse_y(self) -> float:
        return fft_stage_flops(self.n * self.sz, self.n)

    @property
    def inverse_x(self) -> float:
        return fft_stage_flops(self.sy * self.sz, self.n)

    @property
    def total(self) -> float:
        return (
            self.forward_x
            + self.forward_y
            + self.forward_z
            + self.pointwise
            + self.inverse_z
            + self.inverse_y
            + self.inverse_x
        )


def axis_samples_flat(n: int, k: int, r: float) -> int:
    """Retained coordinates along one axis under a flat exterior rate ``r``:
    the ``k`` dense sub-domain coords plus every ``r``-th exterior coord."""
    _check_pos(n, "n")
    _check_pos(k, "k")
    if r <= 0:
        raise ConfigurationError(f"r must be positive, got {r}")
    return int(k + math.ceil((n - k) / r))


# --------------------------------------------------------------------------
# Execution-time models
# --------------------------------------------------------------------------

def dense_conv_time(device: Device, n: int) -> float:
    """Modeled wall time of a dense FFT convolution on ``device``.

    For CPUs this is the paper's FFTW baseline (Table 3 right column).
    """
    flops = dense_conv_flops(n)
    compute = device.fft_time(flops, in_flight_points=float(n**3))
    pointwise = device.pointwise_time(2 * COMPLEX_BYTES * n**3)
    return compute + pointwise


def pruned_conv_time(
    device: Device,
    n: int,
    k: int,
    r: float,
    batch: Optional[int] = None,
    sz: Optional[int] = None,
    sy: Optional[int] = None,
) -> float:
    """Modeled wall time of our pruned compressed convolution on ``device``.

    Parameters mirror the paper's hyperparameters: grid ``n``, sub-domain
    ``k``, average downsampling rate ``r``, and z-pencil batch size ``B``
    (defaults to ``n``).  ``sz``/``sy`` override the flat-rate retained
    coordinate counts when the caller uses a banded octree policy.
    """
    _check_pos(n, "n")
    _check_pos(k, "k")
    if k > n:
        raise ConfigurationError(f"k={k} exceeds n={n}")
    if batch is None:
        batch = n
    _check_pos(batch, "batch")
    if sz is None:
        sz = axis_samples_flat(n, k, r)
    if sy is None:
        sy = axis_samples_flat(n, k, r)

    work = PrunedConvWork(n=n, k=k, sz=sz, sy=sy)
    points = float(n**3)
    compute = device.fft_time(work.total - work.pointwise, in_flight_points=points)
    pointwise = device.pointwise_time(2 * COMPLEX_BYTES * n**3)

    # Batched z-stage launch overhead: the paper's B parameter (§5.4).
    # Forward and inverse z sweeps are each n^2 / B batched calls.
    n_batches = 2 * math.ceil(n * n / batch)
    launches = n_batches * device.launch_overhead_s

    # Host <-> device movement: input sub-domain in, compressed samples out.
    in_bytes = REAL_BYTES * k**3
    out_points = k**3 + sparse_sample_count(n, k, r)
    out_bytes = REAL_BYTES * out_points
    transfer = device.transfer_time(in_bytes + out_bytes)

    return compute + pointwise + launches + transfer


def _check_pos(value: int, name: str) -> None:
    if value <= 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")
