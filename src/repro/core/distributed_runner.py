"""The pipeline's multi-node cost, closed-form, at the paper's scale.

The paper's §4: "based on the results, we can justify deploying the
algorithm on multi-node platforms in the future."  The deployment itself
is :mod:`repro.dist` (real ranks, real transports); the makespan of an
executed run is :func:`repro.cluster.cost.makespan` over its ranks'
chunk counts and ledger-read exchange times.  This module evaluates the
same cost structure closed-form at sizes no test machine holds:
:func:`strong_scaling_curve` against the traditional distributed
convolution, plus the feasibility and compute-amplification figures that
go with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cluster.cost import (
    comm_time_ours,
    comm_time_traditional_fft,
    dense_conv_flops,
    pruned_conv_time,
)
from repro.cluster.device import Device, V100_32GB
from repro.cluster.network import Link
from repro.core.decomposition import DomainDecomposition
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ScalingPoint:
    """One worker count on the strong-scaling curve."""

    p: int
    t_ours_s: float
    t_traditional_s: float

    @property
    def advantage(self) -> float:
        return self.t_traditional_s / self.t_ours_s


def compute_amplification(n: int, k: int) -> float:
    """Extra flops our method spends vs one dense convolution.

    Each of the ``(N/k)^3`` sub-domains pays full-grid forward+inverse
    z-stage work (~2 N^2 pencils of length N each way), so total work is
    roughly ``2 (N/k)^3 / 3`` dense-transform-equivalents.  This is the
    honest other side of the paper's trade: the method buys *zero
    all-to-alls* and an ``8 N^2 k`` working set with a large compute
    multiplier — which is why its wins are single-device feasibility
    (Table 2) and unsaturated scaling, not raw flops.
    """
    decomp = DomainDecomposition(n=n, k=k)
    return decomp.num_domains * 2.0 / 3.0


def min_feasible_ranks_traditional(
    n: int, device: Device, buffers: int = 3
) -> int:
    """Smallest P for which a traditional distributed dense convolution
    fits per-rank device memory (``buffers`` complex N^3/P working arrays —
    input spectrum, kernel stage, workspace)."""
    per_rank_need = buffers * 16 * n**3
    p = 1
    while per_rank_need / p > device.memory_bytes:
        p *= 2
        if p > 2**24:  # pragma: no cover - absurd sizes
            raise ConfigurationError("no feasible rank count")
    return p


def parallel_efficiency(points: Sequence[ScalingPoint]) -> Tuple[float, float]:
    """(ours, traditional) efficiency across the swept range:
    ``(t_first * p_first) / (t_last * p_last)`` — 1.0 is perfect scaling."""
    if len(points) < 2:
        raise ConfigurationError("need at least two scaling points")
    first, last = points[0], points[-1]
    ours = (first.t_ours_s * first.p) / (last.t_ours_s * last.p)
    trad = (first.t_traditional_s * first.p) / (last.t_traditional_s * last.p)
    return ours, trad


def strong_scaling_curve(
    n: int,
    k: int,
    r: float,
    p_values: Sequence[int],
    device: Device = V100_32GB,
    link: Optional[Link] = None,
    batch: int = 4096,
) -> List[ScalingPoint]:
    """Closed-form strong scaling: our pipeline vs traditional distributed
    convolution, at the paper's scale.

    Ours: ``ceil(num_domains / P)`` local chunk convolutions per rank (no
    communication) plus one sparse exchange (Eq 6 with alpha).
    Traditional: dense convolution flops spread over P ranks plus four
    all-to-all stages (Eq 1 with alpha, forward + inverse transforms).
    """
    link = link or Link()
    decomp = DomainDecomposition(n=n, k=k)
    chunk_time = pruned_conv_time(device, n, k, r, batch=batch)
    points: List[ScalingPoint] = []
    for p in p_values:
        if p < 1:
            raise ConfigurationError(f"worker counts must be >= 1, got {p}")
        chunks_per_rank = -(-decomp.num_domains // p)
        t_ours = chunks_per_rank * chunk_time + comm_time_ours(
            n, k, r, p, link, include_latency=True
        )
        compute = device.fft_time(
            dense_conv_flops(n) / p, in_flight_points=float(n**3 / p)
        )
        t_trad = compute + 2 * comm_time_traditional_fft(
            n, p, link, bytes_per_point=16, include_latency=True
        )
        points.append(ScalingPoint(p=p, t_ours_s=t_ours, t_traditional_s=t_trad))
    return points
