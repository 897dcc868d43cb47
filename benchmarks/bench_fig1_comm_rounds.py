"""E5 — Figure 1: all-to-all rounds, traditional vs low-communication.

Both pipelines run as real ranks over the loopback transport, and every
count is read off the ranks' wire ledgers.  Shape targets: the traditional
pencil convolution needs 4 all-to-all rounds (2 per transform, Fig 1a);
ours needs zero all-to-alls and exactly one sparse exchange (Fig 1b),
moving fewer bytes.
"""

from conftest import emit

from repro.analysis.experiments import run_fig1_comm_rounds
from repro.analysis.tables import format_table


def test_fig1_comm_rounds(benchmark):
    res = benchmark(run_fig1_comm_rounds)
    emit(
        format_table(
            ["pipeline", "all-to-all rounds", "exchanges", "bytes on wire",
             "input bytes", "alpha-beta (s)"],
            [
                ["traditional (pencil FFT conv)", res.traditional_rounds,
                 res.traditional_exchanges, res.traditional_bytes,
                 res.traditional_input_bytes, res.traditional_comm_s],
                ["ours (local conv + 1 sparse exchange)", res.ours_rounds,
                 res.ours_exchanges, res.ours_bytes, res.ours_input_bytes,
                 res.ours_comm_s],
            ],
            title="Figure 1: communication pattern",
        )
    )
    assert (res.traditional_rounds, res.traditional_exchanges) == (4, 0)
    assert (res.ours_rounds, res.ours_exchanges) == (0, 1)
    assert res.ours_bytes < res.traditional_bytes
    assert res.ours_comm_s < res.traditional_comm_s
    assert res.results_match  # traditional is exact
    assert res.approx_error < 0.15  # ours approximates at this toy scale
