"""The pipeline's multi-node cost on the simulated cluster.

The paper's §4: "based on the results, we can justify deploying the
algorithm on multi-node platforms in the future."  The deployment itself
is :mod:`repro.dist` (real ranks, real transports).  This module is the
*model* beside it, evaluated on a finished in-process result: P ranks own
the sub-domains round-robin, each chunk charges modeled compute time to
its owner's device, and the single sparse allgather is booked on a
:class:`~repro.cluster.comm.SimulatedComm` (bytes and rounds on its
ledger, alpha-beta time on its clock).  :func:`strong_scaling_curve`
evaluates the same cost structure closed-form at the paper's scale against
the traditional distributed convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.comm import SimulatedComm
from repro.cluster.cost import (
    comm_time_ours,
    comm_time_traditional_fft,
    dense_conv_flops,
    pruned_conv_time,
)
from repro.cluster.device import Device, V100_32GB
from repro.cluster.memory import MemoryTracker
from repro.cluster.network import Link, Network
from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.core.local_conv import KernelSpectrum
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError
from repro.octree.compress import CompressedField


@dataclass
class DistributedRunReport:
    """Timings and traffic of one simulated multi-node run."""

    approx: np.ndarray
    num_ranks: int
    per_rank_compute_s: List[float]
    comm_s: float
    comm_bytes: int
    alltoall_rounds: int
    #: collective rounds of any kind (the Fig 1(b) claim: exactly one)
    comm_rounds: int

    @property
    def makespan_s(self) -> float:
        """Critical path: slowest rank's compute plus the exchange."""
        return max(self.per_rank_compute_s, default=0.0) + self.comm_s


def book_exchange(
    comm: SimulatedComm, per_domain: Sequence[Tuple[SubDomain, CompressedField]]
) -> None:
    """Book the pipeline's single sparse exchange on ``comm``.

    Wire format per rank: the concatenated sample values of the
    sub-domains it owns (round-robin by index, as in the real rank loop).
    Patterns are deterministic from (n, k, corner, policy), so peers
    rebuild them locally; only values cross the network.  One allgather —
    the only collective in the whole pipeline — lands on the ledger and
    the clock; a dead rank raises :class:`~repro.errors.RankFailure`.
    """
    by_rank: List[List[np.ndarray]] = [[] for _ in range(comm.size)]
    for sub, compressed in per_domain:
        by_rank[sub.index % comm.size].append(compressed.values)
    comm.allgather(
        [
            np.concatenate(values) if values else np.empty(0, dtype=np.float64)
            for values in by_rank
        ]
    )


class DistributedLowCommConvolution:
    """The pipeline's cost on P simulated ranks, evaluated on a real result.

    Numerics run for real, in-process (``run_serial``, small n), under the
    device's memory budget; compute time per rank is charged from the
    device model per owned chunk; communication bytes, rounds and
    alpha-beta time come from booking the single exchange on a
    :class:`SimulatedComm`.  For actual ranks on an actual transport use
    :func:`repro.dist.dist_run`.
    """

    def __init__(
        self,
        n: int,
        k: int,
        kernel_spectrum: KernelSpectrum,
        policy: Optional[SamplingPolicy] = None,
        device: Device = V100_32GB,
        link: Optional[Link] = None,
        batch: Optional[int] = None,
        real_kernel: Optional[bool] = None,
    ):
        self.pipeline = LowCommConvolution3D(
            n,
            k,
            kernel_spectrum,
            policy,
            batch=batch,
            memory=MemoryTracker(
                capacity_bytes=device.memory_bytes, device_name=device.name
            ),
            real_kernel=real_kernel,
        )
        self.device = device
        self.link = link or Link()
        self.policy = self.pipeline.policy

    def run(self, field: np.ndarray, num_ranks: int) -> DistributedRunReport:
        """Run the pipeline, then cost it across ``num_ranks`` ranks.

        Raises :class:`~repro.errors.DeviceMemoryError` if one local
        convolution's working set exceeds the device's memory.
        """
        if num_ranks < 1:
            raise ConfigurationError(f"need >= 1 rank, got {num_ranks}")
        result = self.pipeline.run_serial(field)
        comm = SimulatedComm(num_ranks, network=Network(num_ranks, self.link))
        book_exchange(comm, result.per_domain)

        # Charge modeled per-chunk compute time to each owning rank.
        chunk_time = pruned_conv_time(
            self.device,
            self.pipeline.n,
            self.pipeline.k,
            self.policy.average_rate(),
            batch=self.pipeline.local.batch,
        )
        per_rank = [0.0] * num_ranks
        for sub, _cf in result.per_domain:
            per_rank[sub.index % num_ranks] += chunk_time

        return DistributedRunReport(
            approx=result.approx,
            num_ranks=num_ranks,
            per_rank_compute_s=per_rank,
            comm_s=comm.clock.category_total("comm"),
            comm_bytes=comm.ledger.total_bytes,
            alltoall_rounds=comm.ledger.alltoall_rounds,
            comm_rounds=comm.ledger.total_rounds,
        )


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
