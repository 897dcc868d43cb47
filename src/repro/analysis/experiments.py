"""Experiment drivers: one function per paper table/figure.

Each driver returns structured rows plus an
:class:`~repro.analysis.report.ExperimentReport` comparing against the
paper's published numbers, and is called by the matching benchmark in
``benchmarks/`` (see DESIGN.md §4 for the experiment index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.report import ExperimentReport
from repro.baselines.single_gpu import max_dense_grid
from repro.cluster.cost import (
    comm_time_ours,
    comm_time_traditional_fft,
    dense_conv_time,
    pruned_conv_time,
)
from repro.cluster.cufft_model import CufftWorkspaceModel
from repro.cluster.device import Device, V100_16GB, V100_32GB, XEON_GOLD_6148
from repro.cluster.network import Link
from repro.core.costmodel import table1_rows
from repro.core.local_conv import LocalConvolution
from repro.core.policy import SamplingPolicy
from repro.core.reference import reference_convolve, reference_subdomain_convolve
from repro.dist.launcher import dist_run
from repro.dist.ledger import (
    CATEGORY_BCAST,
    CATEGORY_DATA,
    CATEGORY_EXCHANGE,
    alltoall_rounds,
)
from repro.dist.traditional import traditional_convolve
from repro.dist.worker import DistConfig
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.green_massif import LameParameters
from repro.massif.elasticity import StiffnessField, isotropic_stiffness
from repro.massif.lowcomm_solver import LowCommMassifSolver
from repro.massif.microstructure import sphere_inclusion
from repro.massif.solver import MassifSolver
from repro.octree.interpolate import reconstruct_dense
from repro.octree.sampling import build_adaptive_pattern
from repro.util.arrays import l2_relative_error

GIB = float(2**30)

# -- paper-reported values ----------------------------------------------------

#: Table 1: (N, k) -> (traditional GiB, ours GiB)
PAPER_TABLE1: Dict[Tuple[int, int], Tuple[float, float]] = {
    (1024, 128): (8, 1),
    (1024, 512): (8, 4),
    (2048, 128): (64, 4),
    (2048, 512): (64, 16),
    (4096, 128): (512, 16),
    (4096, 512): (512, 64),
    (8192, 64): (4096, 32),
    (8192, 128): (4096, 64),
}

#: Table 2: N -> (allowable k, device name)
PAPER_TABLE2: Dict[int, Tuple[int, str]] = {
    128: (64, "V100-16GB"),
    256: (128, "V100-16GB"),
    512: (256, "V100-16GB"),
    1024: (256, "V100-32GB"),
    2048: (64, "V100-32GB"),
}

#: Table 3 rows: (N, k, r) -> (ours ms, FFTW ms, speedup)
PAPER_TABLE3: Dict[Tuple[int, int, int], Tuple[float, float, float]] = {
    (128, 32, 4): (25.12, 104.67, 4.17),
    (256, 32, 4): (88.15, 1050.25, 11.91),
    (512, 32, 4): (468.01, 9002.29, 19.24),
    (512, 32, 8): (419.82, 9009.95, 21.46),
    (1024, 32, 32): (2947.96, 72016.2, 24.43),
}

#: Table 4 rows: (N, k, r) -> (estimated GiB, actual GiB)
PAPER_TABLE4: Dict[Tuple[int, int, int], Tuple[float, float]] = {
    (512, 32, 16): (0.62, 1.29),
    (1024, 32, 32): (2.49, 4.33),
    (2048, 8, 128): (3.52, 5.67),
    (2048, 16, 128): (5.02, 8.16),
    (2048, 32, 128): (8.00, 13.16),
    (2048, 32, 64): (9.97, 16.20),
    (2048, 64, 64): (15.92, 26.20),
}

#: §5.4 batch-parameter observations: (N, B_from, B_to) -> % speedup
PAPER_BATCH_SWEEP: Dict[Tuple[int, int, int], float] = {
    (256, 512, 1024): 19.9,
    (1024, 1024, 2048): 7.35,
    (2048, 4096, 8192): 6.0,  # "5-7%" midpoint
}


# -- E1: Table 1 ---------------------------------------------------------------

def run_table1_memory() -> ExperimentReport:
    """Memory back-of-envelope: traditional full-resolution vs domain-local."""
    report = ExperimentReport(
        "E1",
        "Table 1: memory for traditional vs domain-local FFT (GiB)",
        notes="ours = 8*N*N*k working set; traditional = 8*N^3 result",
    )
    for n, k, trad_gib, ours_gib in table1_rows():
        paper_trad, paper_ours = PAPER_TABLE1[(n, k)]
        report.add(f"N={n} k={k} traditional", paper_trad, trad_gib, "GiB")
        report.add(f"N={n} k={k} ours", paper_ours, ours_gib, "GiB")
    return report


# -- E2: Table 2 ---------------------------------------------------------------

def table2_rate_for(n: int) -> int:
    """The average exterior rate the paper's Table 2/4 configs use at each N
    (r grows with N: 16 at 512, 32 at 1024, 64 at 2048)."""
    return max(4, n // 32)


def run_table2_allowable_k(
    model: Optional[CufftWorkspaceModel] = None,
) -> ExperimentReport:
    """Largest sub-domain k whose modeled actual memory fits the paper's GPU."""
    model = model or CufftWorkspaceModel()
    devices = {"V100-16GB": V100_16GB, "V100-32GB": V100_32GB}
    report = ExperimentReport(
        "E2",
        "Table 2: max allowable k per grid size on the paper's GPUs",
        notes="memory model calibrated on Table 4; r = max(4, N/32)",
    )
    for n, (paper_k, device_name) in PAPER_TABLE2.items():
        device = devices[device_name]
        r = table2_rate_for(n)
        allowable = 0
        k = 8
        while k < n:
            if model.fits(n, k, r, device.memory_bytes):
                allowable = k
            k *= 2
        report.add(f"N={n} ({device_name})", paper_k, allowable, "k")
    return report


def dense_gpu_ceiling() -> Tuple[int, int]:
    """(plain cuFFT max N, our max N) on the 32 GB V100 — the 8x claim."""
    plain = max_dense_grid(V100_32GB)
    model = CufftWorkspaceModel()
    ours = 0
    for n in (128, 256, 512, 1024, 2048, 4096):
        r = table2_rate_for(n)
        if any(
            model.fits(n, k, r, V100_32GB.memory_bytes)
            for k in (8, 16, 32, 64)
            if k < n
        ):
            ours = max(ours, n)
    return plain, ours


# -- E3: Table 3 ---------------------------------------------------------------

@dataclass
class SpeedupRow:
    n: int
    k: int
    r: int
    ours_ms: float
    fftw_ms: float
    speedup: float


def run_table3_speedup(
    gpu: Device = V100_32GB, cpu: Device = XEON_GOLD_6148, batch: int = 1024
) -> Tuple[List[SpeedupRow], ExperimentReport]:
    """Modeled runtimes/speedups for the paper's Table 3 configurations."""
    report = ExperimentReport(
        "E3",
        "Table 3: our GPU pipeline vs CPU FFTW (modeled, ms)",
        notes="device models calibrated in EXPERIMENTS.md; shape target is "
        "speedup growing ~4x -> ~24x with N",
    )
    rows: List[SpeedupRow] = []
    for (n, k, r), (p_ours, p_fftw, p_speedup) in PAPER_TABLE3.items():
        ours = pruned_conv_time(gpu, n, k, r, batch=batch) * 1e3
        fftw = dense_conv_time(cpu, n) * 1e3
        rows.append(SpeedupRow(n, k, r, ours, fftw, fftw / ours))
        report.add(f"N={n} r={r} speedup", p_speedup, fftw / ours, "x")
    return rows, report


def measure_table3_error(
    n: int = 128,
    k: int = 32,
    r: int = 16,
    sigma: float = 2.0,
    flat: bool = False,
) -> float:
    """*Measured* approximation error for a Table-3-style configuration.

    Single sub-domain convolution (the paper's POC setup) against the dense
    reference; paper reports <= 3% for all Table 3 rows.  By default the
    paper's banded schedule is used with ``r`` as the far-field rate
    (the quantity Table 3 quotes); ``flat=True`` is the uniform-rate
    ablation, which is markedly worse because the decay shell just outside
    the sub-domain needs the dense near band.
    """
    spec = GaussianKernel(n=n, sigma=sigma).spectrum()
    rng = np.random.default_rng(0)
    sub = 1.0 + 0.1 * rng.standard_normal((k, k, k))
    corner = ((n - k) // 2,) * 3
    if flat:
        policy = SamplingPolicy.flat_rate(r)
    else:
        policy = SamplingPolicy(
            r_near=2, r_mid=min(8, max(2, r)), r_far=max(2, r), min_cell=2
        )
    lc = LocalConvolution(n, spec, policy, batch=n)
    compressed = lc.convolve(sub, corner)
    approx = reconstruct_dense(compressed)
    exact = reference_subdomain_convolve(sub, corner, spec)
    return l2_relative_error(approx, exact)


# -- E4: Table 4 ---------------------------------------------------------------

def run_table4_memory(
    model: Optional[CufftWorkspaceModel] = None,
) -> ExperimentReport:
    """Estimated vs modeled-actual GPU memory for the paper's configurations."""
    model = model or CufftWorkspaceModel()
    report = ExperimentReport(
        "E4",
        "Table 4: estimated vs actual GPU memory (GiB)",
        notes="actual = estimated * (1 + 0.59) + 0.3 GiB context "
        "(cuFFT workspace model)",
    )
    for (n, k, r), (p_est, p_act) in PAPER_TABLE4.items():
        report.add(f"N={n} k={k} r={r} est", p_est, model.estimated_gb(n, k, r), "GiB")
        report.add(f"N={n} k={k} r={r} actual", p_act, model.actual_gb(n, k, r), "GiB")
    return report


# -- E5: Figure 1 ----------------------------------------------------------------

@dataclass
class CommRoundsResult:
    """Fig 1, read off the two pipelines' wire ledgers (bytes summed over
    ranks, frame headers included; rounds and alpha-beta time per rank)."""

    traditional_rounds: int
    traditional_exchanges: int
    traditional_bytes: int
    traditional_input_bytes: int
    traditional_comm_s: float
    ours_rounds: int
    ours_exchanges: int
    ours_bytes: int
    ours_input_bytes: int
    ours_comm_s: float
    results_match: bool
    approx_error: float


def run_fig1_comm_rounds(
    n: int = 32, k: int = 8, p: int = 4, r: int = 4, sigma: float = 2.0
) -> CommRoundsResult:
    """Run both pipelines on ``p`` loopback ranks and read their ledgers.

    Traditional pencil convolution: 4 all-to-all rounds (2 per transform).
    Ours: zero all-to-alls; one sparse exchange at accumulation.  Rounds
    are a rank's sent frames over its ``p - 1`` peers, the same on every
    rank; the alpha-beta time is the slowest rank's, over its transposes
    (traditional) or its exchange (ours), on the default :class:`Link`.
    """
    spec = GaussianKernel(n=n, sigma=sigma).spectrum()
    field = np.zeros((n, n, n))
    field[k : 3 * k, k : 3 * k, k : 3 * k] = 1.0  # a smooth inclusion block
    exact = reference_convolve(field, spec)
    link = Link()

    trad = traditional_convolve(field, spec, p, mode="pencil")
    ours = dist_run(
        DistConfig(
            n=n, k=k, sigma=sigma, policy=f"flat:{r}", batch=n, num_ranks=p,
            transport="local",
        ),
        field=field,
    )
    ours_wire = [ours.rank_results[rank].wire for rank in range(p)]

    return CommRoundsResult(
        traditional_rounds=trad.alltoall_rounds,
        traditional_exchanges=alltoall_rounds(trad.wire, CATEGORY_EXCHANGE),
        traditional_bytes=trad.sent_bytes(CATEGORY_DATA),
        traditional_input_bytes=trad.sent_bytes(CATEGORY_BCAST),
        traditional_comm_s=max(link.ledger_time(w, CATEGORY_DATA) for w in trad.wire),
        ours_rounds=alltoall_rounds(ours_wire),  # all-to-alls: expect 0
        ours_exchanges=alltoall_rounds(ours_wire, CATEGORY_EXCHANGE),
        ours_bytes=ours.exchange_wire_bytes,
        ours_input_bytes=ours.input_wire_bytes,
        ours_comm_s=max(link.ledger_time(w, CATEGORY_EXCHANGE) for w in ours_wire),
        results_match=bool(np.allclose(trad.result, exact, atol=1e-9)),
        approx_error=l2_relative_error(ours.approx, exact),
    )


# -- E6: Figure 3 ----------------------------------------------------------------

@dataclass
class OctreeFig3Result:
    num_cells: int
    sample_count: int
    compression_ratio: float
    rate_histogram: Dict[int, int]
    metadata_bytes: int
    ascii_slice: str


def run_fig3_octree(
    n: int = 128,
    k: int = 32,
    r_near: int = 2,
    r_mid: int = 8,
    r_far: int = 16,
    boundary_width: int = 4,
    min_cell: int = 8,
) -> OctreeFig3Result:
    """The paper's Fig 3 pattern: 32^3 sub-domain in a 128^3 grid."""
    corner = ((n - k) // 2,) * 3
    pattern = build_adaptive_pattern(
        n,
        k,
        corner,
        r_near=r_near,
        r_mid=r_mid,
        r_far=r_far,
        boundary_width=boundary_width,
        boundary_rate=2,
        min_cell=min_cell,
    )
    mask = pattern.occupancy_slice(n // 2)
    step = max(1, n // 64)
    lines = []
    for i in range(0, n, step):
        lines.append("".join("#" if mask[i, j] else "." for j in range(0, n, step)))
    return OctreeFig3Result(
        num_cells=pattern.num_cells,
        sample_count=pattern.sample_count,
        compression_ratio=pattern.compression_ratio,
        rate_histogram=pattern.rate_histogram(),
        metadata_bytes=pattern.metadata_nbytes(),
        ascii_slice="\n".join(lines),
    )


# -- E7: Eq 1 vs Eq 6 -------------------------------------------------------------

def run_comm_time_sweep(
    n: int = 1024,
    k: int = 128,
    r: int = 8,
    p_values: Sequence[int] = (8, 64, 512, 4096),
    link: Optional[Link] = None,
) -> List[Tuple[int, float, float, float]]:
    """``(P, T_fft, T_ours, advantage)`` rows over worker counts."""
    link = link or Link()
    rows = []
    for p in p_values:
        t_fft = comm_time_traditional_fft(n, p, link)
        t_ours = comm_time_ours(n, k, r, p, link)
        rows.append((p, t_fft, t_ours, t_fft / t_ours))
    return rows


# -- E8: batch parameter sweep -----------------------------------------------------

def run_batch_sweep(
    gpu: Device = V100_32GB,
) -> ExperimentReport:
    """Modeled % speedup from doubling B at the paper's quoted points."""
    report = ExperimentReport(
        "E8",
        "Batch parameter B: % speedup from doubling B (paper §5.4)",
        notes="shape target: gains shrink as N grows",
    )
    for (n, b_from, b_to), paper_pct in PAPER_BATCH_SWEEP.items():
        k = 32 if n < 2048 else 64
        r = max(4, n // 32)
        t_from = pruned_conv_time(gpu, n, k, r, batch=b_from)
        t_to = pruned_conv_time(gpu, n, k, r, batch=b_to)
        pct = 100.0 * (t_from - t_to) / t_from
        report.add(f"N={n} B {b_from}->{b_to}", paper_pct, pct, "%")
    return report


# -- E9: MASSIF convergence --------------------------------------------------------

@dataclass
class MassifComparisonResult:
    alg1_iterations: int
    alg2_iterations: int
    alg2_stalled: bool
    alg2_best_residual: float
    effective_stress_error: float
    strain_field_error: float


def run_massif_convergence(
    n: int = 16,
    k: int = 8,
    r: int = 2,
    contrast: float = 5.0,
    tol: float = 1e-4,
    max_iter: int = 200,
) -> MassifComparisonResult:
    """Algorithm 1 vs Algorithm 2 on a two-phase composite.

    The paper's claim (§5.3): convolution error up to 3% "did not largely
    impact convergence"; here the homogenized stress is the compared
    output, with the local-field error reported alongside.
    """
    c_matrix = isotropic_stiffness(LameParameters.from_young_poisson(1.0, 0.3))
    c_incl = isotropic_stiffness(LameParameters.from_young_poisson(contrast, 0.3))
    phase = sphere_inclusion(n, radius=n * 0.3)
    stiffness = StiffnessField(phase, [c_matrix, c_incl])
    macro = np.zeros((3, 3))
    macro[0, 0] = 0.01

    alg1 = MassifSolver(stiffness, tol=tol, max_iter=max_iter).solve(macro)
    alg2 = LowCommMassifSolver(
        stiffness,
        k=k,
        policy=SamplingPolicy.flat_rate(r),
        tol=tol,
        max_iter=max_iter,
        batch=n * n,
        stall_window=10,
        raise_on_fail=False,
    ).solve(macro)

    eff1 = alg1.effective_stress()[0, 0]
    eff2 = alg2.effective_stress()[0, 0]
    return MassifComparisonResult(
        alg1_iterations=alg1.iterations,
        alg2_iterations=alg2.iterations,
        alg2_stalled=alg2.stalled,
        alg2_best_residual=min(alg2.residuals),
        effective_stress_error=abs(eff2 - eff1) / abs(eff1),
        strain_field_error=float(
            np.linalg.norm(alg2.strain - alg1.strain) / np.linalg.norm(alg1.strain)
        ),
    )
