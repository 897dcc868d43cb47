"""One-shot report generator: every experiment, one markdown document.

``python -m repro report`` (or :func:`generate_report`) runs all the
experiment drivers and writes a self-contained markdown report with the
paper-vs-measured tables — the artifact a reproduction reviewer reads.
"""

from __future__ import annotations

import io

from repro._version import __version__
from repro.analysis import experiments as ex
from repro.analysis.tables import format_table
from repro.cluster.trace import gpu_acceleration_story


def generate_report(fast: bool = True) -> str:
    """Build the full markdown report; returns it as a string.

    ``fast=True`` keeps the measured-numerics sections at small grids so
    the whole report generates in ~a minute; ``fast=False`` uses the
    paper-scale configurations for the measured error (slower).
    """
    buf = io.StringIO()
    w = buf.write

    w(f"# Reproduction report (repro {__version__})\n\n")
    w("Generated by `python -m repro report`. Paper: Kulkarni, Kovacevic,\n")
    w("Franchetti, *A framework for low communication approaches for large\n")
    w("scale 3D convolution*, ICPP Workshops '22.\n\n")

    w("## Table 1 — memory\n\n```\n")
    w(ex.run_table1_memory().render())
    w("\n```\n\n")

    w("## Table 2 — allowable k\n\n```\n")
    w(ex.run_table2_allowable_k().render())
    plain, ours = ex.dense_gpu_ceiling()
    w(f"\nsingle-GPU ceiling: dense N={plain}, ours N={ours}\n```\n\n")

    w("## Table 3 — speedups\n\n```\n")
    rows, report = ex.run_table3_speedup()
    w(report.render())
    err_cfg = dict(n=128, k=32, r=16) if not fast else dict(n=64, k=16, r=8)
    err = ex.measure_table3_error(**err_cfg)
    w(f"\nmeasured error at {err_cfg}: {err:.4f} (paper <= 0.03)\n```\n\n")

    w("## Table 4 — GPU memory\n\n```\n")
    w(ex.run_table4_memory().render())
    w("\n```\n\n")

    w("## Figure 1 — communication rounds\n\n```\n")
    f1 = ex.run_fig1_comm_rounds()
    w(
        format_table(
            ["pipeline", "all-to-all rounds", "bytes"],
            [
                ["traditional", f1.traditional_rounds, f1.traditional_bytes],
                ["ours", f1.ours_rounds, f1.ours_bytes],
            ],
        )
    )
    w("\n```\n\n")

    w("## Figure 3 — octree pattern\n\n```\n")
    f3 = ex.run_fig3_octree(n=64, k=16, min_cell=4) if fast else ex.run_fig3_octree()
    w(
        format_table(
            ["rate", "samples"],
            sorted(f3.rate_histogram.items()),
            title=f"{f3.num_cells} cells, {f3.compression_ratio:.1f}x compression",
        )
    )
    w("\n```\n\n")

    w("## Eq 1 vs Eq 6 — communication models\n\n```\n")
    w(
        format_table(
            ["P", "T_fft", "T_ours", "advantage"],
            ex.run_comm_time_sweep(),
        )
    )
    w("\n```\n\n")

    w("## Batch parameter B (§5.4)\n\n```\n")
    w(ex.run_batch_sweep().render())
    w("\n```\n\n")

    w("## §2.1 — compute-to-communication shift\n\n```\n")
    w(format_table(["configuration", "comm fraction"], gpu_acceleration_story()))
    w("\n```\n\n")

    w("## MASSIF — Algorithm 1 vs 2 (§5.3)\n\n```\n")
    m = ex.run_massif_convergence()  # the standard E9 configuration
    w(
        format_table(
            ["quantity", "value"],
            [
                ["Alg 1 iterations", m.alg1_iterations],
                ["Alg 2 iterations", m.alg2_iterations],
                ["Alg 2 stalled", m.alg2_stalled],
                ["best residual", m.alg2_best_residual],
                ["effective stress error", m.effective_stress_error],
                ["strain field error", m.strain_field_error],
            ],
        )
    )
    w("\n```\n")
    return buf.getvalue()
