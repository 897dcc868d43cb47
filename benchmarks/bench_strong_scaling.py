"""E13 — multi-node deployment: strong scaling of the full pipeline.

The paper's §4 defers multi-node deployment to future work; this benchmark
runs it on real ranks over the loopback transport, models it closed-form
at the paper's scale, and makes the trade explicit:

- **scaling shape**: our pipeline is embarrassingly parallel (chunks per
  rank, one sparse exchange) and keeps near-perfect efficiency to
  thousands of ranks, while the traditional convolution's all-to-alls
  erode its efficiency (alpha-dominated at scale);
- **feasibility**: at N = 2048 a dense convolution does not fit a single
  32 GB GPU at all (the Table 2 / §5.1 headline) — ours runs at P = 1;
- **the price**: the method performs ~2(N/k)^3/3 dense-transform
  equivalents of compute, the honest other side of removing the
  communication (recorded in EXPERIMENTS.md).
"""

from dataclasses import replace

import numpy as np
from conftest import emit

from repro.analysis.tables import format_table
from repro.cluster.cost import makespan, pruned_conv_time
from repro.cluster.device import V100_32GB
from repro.cluster.network import Link
from repro.core.distributed_runner import (
    compute_amplification,
    min_feasible_ranks_traditional,
    parallel_efficiency,
    strong_scaling_curve,
)
from repro.core.policy import parse_policy
from repro.core.reference import reference_convolve
from repro.dist import DistConfig, dist_run
from repro.dist.ledger import CATEGORY_DATA, CATEGORY_EXCHANGE, alltoall_rounds
from repro.kernels.gaussian import GaussianKernel
from repro.util.arrays import l2_relative_error


def test_strong_scaling_curve(benchmark):
    p_values = [1, 8, 64, 512, 4096]
    points = benchmark(strong_scaling_curve, 2048, 128, 16, p_values)
    emit(
        format_table(
            ["P", "ours (s)", "traditional (s)", "t*P ours", "t*P trad"],
            [
                [p.p, p.t_ours_s, p.t_traditional_s,
                 p.t_ours_s * p.p, p.t_traditional_s * p.p]
                for p in points
            ],
            title="Strong scaling, N=2048, k=128 (modeled)",
        )
    )
    eff_ours, eff_trad = parallel_efficiency(points)
    amp = compute_amplification(2048, 128)
    emit(
        f"parallel efficiency across the sweep: ours {eff_ours:.2f}, "
        f"traditional {eff_trad:.2f}; compute amplification ~{amp:.0f}x "
        f"dense-transform equivalents"
    )
    # ours: near-perfect strong scaling (no saturation)
    assert eff_ours > 0.9
    # traditional: all-to-alls erode efficiency at scale
    assert eff_trad < eff_ours
    # the price is real and reported
    assert amp > 100


def test_feasibility_headline(benchmark):
    min_p = benchmark(min_feasible_ranks_traditional, 2048, V100_32GB)
    emit(
        f"N=2048 dense convolution needs >= {min_p} x V100-32GB; "
        "our pipeline runs at P=1 (Table 2)"
    )
    assert min_p >= 8  # a whole node of GPUs vs our single one


def test_executed_multinode_run(benchmark):
    """Small-scale end-to-end run on loopback ranks: correct result, zero
    all-to-alls, modelled makespan shrinking with ranks.  The makespan is
    each rank's convolved chunks on the device model plus the alpha-beta
    time of the exchange bytes its wire ledger counted."""
    n, k = 32, 8
    field = np.zeros((n, n, n))
    field[8:24, 8:24, 8:24] = 1.0
    config = DistConfig(
        n=n, k=k, sigma=1.5, policy="flat:2", batch=256, transport="local"
    )
    chunk_s = pruned_conv_time(
        V100_32GB, n, k, parse_policy(config.policy).average_rate(), batch=256
    )
    link = Link()

    def run(ranks):
        report = dist_run(replace(config, num_ranks=ranks), field=field)
        results = [report.rank_results[rank] for rank in range(ranks)]
        model = makespan(
            [r.num_chunks for r in results],
            chunk_s,
            [link.ledger_time(r.wire, CATEGORY_EXCHANGE) for r in results],
        )
        return report, model

    rep4, makespan4 = benchmark(run, 4)
    _rep1, makespan1 = run(1)
    exact = reference_convolve(field, GaussianKernel(n=n, sigma=1.5).spectrum())
    wires = [r.wire for r in rep4.rank_results.values()]
    rounds = alltoall_rounds(wires, CATEGORY_DATA)
    emit(
        f"P=1 makespan {makespan1 * 1e3:.2f} ms -> "
        f"P=4 makespan {makespan4 * 1e3:.2f} ms; "
        f"error {l2_relative_error(rep4.approx, exact):.4f}; "
        f"all-to-alls {rounds}"
    )
    assert rounds == 0
    assert alltoall_rounds(wires, CATEGORY_EXCHANGE) == 1
    assert makespan4 < makespan1
    assert l2_relative_error(rep4.approx, exact) < 0.05
