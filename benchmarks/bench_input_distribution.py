"""Input + exchange bytes of a pool job against the exact model.

The paper's metric is bytes on the wire.  Eq 6 models the one sparse
exchange as an allgather; the exchange now sends each peer only the
cells that touch its boxes, and what Eq 6 leaves out is how the input
reaches the ranks.  This
script measures both on a standing TCP pool, per job, from the ranks' own
``WireLedger`` counters:

- ``input``: everything under the ``bcast`` category — the scattered
  ``k^3`` blocks and their frames (no kernel crosses the mesh);
- ``exchange``: the sparse accumulation exchange;

beside their exact predictions (``predicted_input_bytes``: the blocks
rank 0 scatters; ``predicted_value_bytes``: the per-destination sample
values) and the paper's allgather count (``eq6_value_bytes``), and the
``control`` bytes of the job messages the driver sent the rank processes
(rank 0's blocks, and the kernel array for a rank whose spectrum table
lacked it), for a cold job (the kernel goes to every rank once), a warm
job (it does not) and a job on the default kernel (ranks evaluate it
themselves: nothing ships even cold).

Run directly (``PYTHONPATH=src python benchmarks/bench_input_distribution.py``)
it prints the EXPERIMENTS.md table for P in {2, 4} at n = 64, k = 16,
``banded``.  Under pytest it runs the same rows at n = 16 and checks only
byte counts, so CI gates no wall time.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.dist import DistConfig, composite_field, sent_wire_bytes
from repro.kernels.gaussian import GaussianKernel
from repro.pool import private_pool


def rows(n: int, k: int, policy: str, ranks: int):
    """``(label, report)`` for a cold, a warm and a default-kernel job."""
    config = DistConfig(n=n, k=k, policy=policy, num_ranks=ranks, transport="tcp")
    field = composite_field(n, seed=0)
    spectrum = GaussianKernel(n=n, sigma=config.sigma).spectrum()
    with private_pool(ranks) as pool:
        default = pool.submit(config, field=field)
        cold = pool.submit(config, field=field, spectrum=spectrum)
        warm = pool.submit(config, field=field, spectrum=spectrum)
    return [("cold", cold), ("warm", warm), ("default kernel, cold", default)]


def table(n: int, k: int, policy: str, rank_counts) -> str:
    body = []
    for ranks in rank_counts:
        for label, report in rows(n, k, policy, ranks):
            model = report.predicted_input_bytes + report.predicted_value_bytes
            total = sent_wire_bytes(report.wire_totals)
            body.append(
                [
                    ranks,
                    label,
                    report.input_wire_bytes,
                    report.predicted_input_bytes,
                    report.exchange_wire_bytes,
                    report.predicted_value_bytes,
                    report.eq6_value_bytes,
                    total,
                    f"{total / model:.3f}",
                    report.control_in_bytes,
                ]
            )
    return format_table(
        ["P", "job", "input B", "blocks B", "exchange B", "per-dest B", "Eq 6 B",
         "total B", "total / model", "control B"],
        body,
        title=f"input + exchange vs per-destination + input, n={n} k={k} {policy}",
    )


def test_input_distribution_byte_counts():
    n, k = 16, 4
    dense = 8 * n**3
    for ranks in (2, 4):
        (_, cold), (_, warm), (_, default) = rows(n, k, "flat:2", ranks)
        for report in (cold, warm, default):
            assert report.predicted_input_bytes > 0
            assert np.isfinite(report.approx).all()
        # the kernel reached each rank once, with the cold job's message
        shipped = cold.control_in_bytes - warm.control_in_bytes
        assert ranks * dense < shipped < ranks * (dense + 256)
        for report in (cold, warm, default):
            assert report.input_wire_bytes < report.predicted_input_bytes + 100 * ranks
        for report in (warm, default):
            assert report.control_in_bytes < dense  # the blocks, no kernel


if __name__ == "__main__":
    print(table(64, 16, "banded", (2, 4)))
