"""Gate semantics: thresholds, baselines, directions, CLI exit codes.

The acceptance scenario lives here: inject a synthetic 2x slowdown into
a stored metric and prove ``python -m repro xpr gate`` exits non-zero
with a readable per-metric diff naming the regression.
"""

import pytest

from repro.util.clock import ManualClock
from repro.xpr.cli import xpr_main
from repro.xpr.gate import (
    GateConfig,
    evaluate_gate,
    is_timing_metric,
    metric_direction,
)
from repro.xpr.store import TrajectoryStore, TrialRecord


def record(metrics, *, status="ok", trial_id="aaa111bbb222", error=None,
           experiment="exp"):
    return TrialRecord(
        experiment=experiment,
        trial_id=trial_id,
        git_rev="abc123",
        ts="2026-01-01T00:00:00+00:00",
        status=status,
        params={"mode": "serial", "n": 32, "k": 8},
        metrics=metrics,
        error=error,
    )


def store_with(tmp_path, *records):
    store = TrajectoryStore(tmp_path / "t.jsonl")
    store.extend(records)
    return store


class TestMetricClassification:
    def test_timing_metrics(self):
        assert is_timing_metric("median_s")
        assert is_timing_metric("results.naive.median_s")
        assert is_timing_metric("speedup")
        assert is_timing_metric("per_call_us")
        assert not is_timing_metric("exchange_wire_bytes")
        assert not is_timing_metric("wire_over_model")

    def test_direction(self):
        assert metric_direction("speedup")
        assert metric_direction("results.batched.throughput_rps")
        assert not metric_direction("median_s")
        assert not metric_direction("exchange_wire_bytes")


class TestThresholds:
    def test_structural_within_ten_percent_passes(self, tmp_path):
        store = store_with(
            tmp_path,
            record({"wire_bytes": 1000.0}),
            record({"wire_bytes": 1050.0}),
        )
        report = evaluate_gate(store)
        assert report.passed
        (diff,) = report.diffs
        assert diff.change == pytest.approx(0.05)

    def test_structural_beyond_ten_percent_fails(self, tmp_path):
        store = store_with(
            tmp_path,
            record({"wire_bytes": 1000.0}),
            record({"wire_bytes": 1200.0}),
        )
        report = evaluate_gate(store)
        assert not report.passed
        (diff,) = report.regressions
        assert diff.metric == "wire_bytes"
        assert diff.threshold == pytest.approx(0.10)

    def test_timing_metrics_get_the_wide_band(self, tmp_path):
        # +40% on a *_s metric is inside the 50% timing band...
        store = store_with(
            tmp_path,
            record({"median_s": 1.0}),
            record({"median_s": 1.4}),
        )
        assert evaluate_gate(store).passed
        # ...but the same +40% on a structural metric regresses.
        store2 = store_with(
            tmp_path / "b",
            record({"wire_bytes": 1.0}),
            record({"wire_bytes": 1.4}),
        )
        assert not evaluate_gate(store2).passed

    def test_per_metric_override_beats_both_defaults(self, tmp_path):
        store = store_with(
            tmp_path,
            record({"median_s": 1.0}),
            record({"median_s": 1.05}),
        )
        config = GateConfig(per_metric={"median_s": 0.01})
        report = evaluate_gate(store, config=config)
        assert not report.passed

    def test_higher_is_better_inverts_direction(self, tmp_path):
        # speedup dropping 2.0 -> 0.8 is a regression even though the
        # raw value went *down*.
        store = store_with(
            tmp_path,
            record({"speedup": 2.0}),
            record({"speedup": 0.8}),
        )
        report = evaluate_gate(store)
        (diff,) = report.regressions
        assert diff.higher_is_better
        assert diff.change == pytest.approx(0.6)
        # and a speedup *improvement* can never regress
        store2 = store_with(
            tmp_path / "b",
            record({"speedup": 1.0}),
            record({"speedup": 4.0}),
        )
        assert evaluate_gate(store2).passed


class TestBaseline:
    def test_baseline_is_median_of_prior_ok_runs(self, tmp_path):
        history = [1.0, 100.0, 1.2]  # one outlier must not poison it
        store = store_with(
            tmp_path,
            *[record({"wire_bytes": v}) for v in history],
            record({"wire_bytes": 1.25}),
        )
        (diff,) = evaluate_gate(store).diffs
        assert diff.baseline == pytest.approx(1.2)
        assert evaluate_gate(store).passed

    def test_history_window_is_bounded(self, tmp_path):
        # With history_n=2 only the two newest priors form the baseline.
        store = store_with(
            tmp_path,
            record({"wire_bytes": 1.0}),
            record({"wire_bytes": 10.0}),
            record({"wire_bytes": 10.0}),
            record({"wire_bytes": 10.5}),
        )
        config = GateConfig(history_n=2)
        (diff,) = evaluate_gate(store, config=config).diffs
        assert diff.baseline == pytest.approx(10.0)
        assert evaluate_gate(store, config=config).passed

    def test_failed_runs_are_excluded_from_the_baseline(self, tmp_path):
        store = store_with(
            tmp_path,
            record({"wire_bytes": 1.0}),
            record({}, status="error", error="boom"),
            record({"wire_bytes": 1.05}),
        )
        report = evaluate_gate(store)
        (diff,) = report.diffs
        assert diff.baseline == pytest.approx(1.0)
        assert report.passed

    def test_new_trial_passes_and_is_reported(self, tmp_path):
        store = store_with(tmp_path, record({"wire_bytes": 1.0}))
        report = evaluate_gate(store)
        assert report.passed
        assert report.diffs == []
        assert len(report.new_trials) == 1
        assert "new trial" in report.render()

    def test_latest_run_failed_fails_the_gate(self, tmp_path):
        store = store_with(
            tmp_path,
            record({"wire_bytes": 1.0}),
            record({}, status="timeout", error="exceeded 600s"),
        )
        report = evaluate_gate(store)
        assert not report.passed
        assert "FAILED" in report.render()
        assert "exceeded 600s" in report.render()

    def test_zero_baseline_edge_cases(self, tmp_path):
        store = store_with(
            tmp_path,
            record({"copied_bytes": 0.0}),
            record({"copied_bytes": 0.0}),
        )
        assert evaluate_gate(store).passed  # 0 -> 0 is no change
        store2 = store_with(
            tmp_path / "b",
            record({"copied_bytes": 0.0}),
            record({"copied_bytes": 64.0}),
        )
        report = evaluate_gate(store2)
        assert not report.passed  # 0 -> anything worse is infinite
        assert "+inf%" in report.render()

    def test_evaluation_time_reads_the_injected_clock(self, tmp_path):
        store = store_with(tmp_path, record({"wire_bytes": 1.0}))
        clock = ManualClock()
        report = evaluate_gate(store, clock=clock)
        assert report.evaluation_s == 0.0


class TestGateCLI:
    def test_synthetic_2x_slowdown_exits_nonzero(self, tmp_path, capsys):
        # THE acceptance scenario: a stored structural metric doubles;
        # the gate must exit non-zero and name the regression readably.
        path = tmp_path / "t.jsonl"
        store = TrajectoryStore(path)
        store.extend(
            [
                record({"exchange_wire_bytes": 90112.0,
                        "wire_over_model": 1.0088}),
                record({"exchange_wire_bytes": 180224.0,
                        "wire_over_model": 1.0088}),
            ]
        )
        exit_code = xpr_main(["gate", "--store", str(path)])
        out = capsys.readouterr().out
        assert exit_code == 1
        assert "REGRESSION" in out
        assert "exchange_wire_bytes" in out
        assert "baseline 90112 -> current 180224" in out
        assert "+100.0%" in out
        assert "limit +10.0%" in out
        assert "gate: FAIL" in out
        # the untouched metric is reported ok on its own line
        assert "wire_over_model: baseline 1.0088 -> current 1.0088" in out

    def test_clean_store_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        TrajectoryStore(path).extend(
            [record({"wire_bytes": 1.0}), record({"wire_bytes": 1.0})]
        )
        assert xpr_main(["gate", "--store", str(path)]) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_threshold_flags_reach_the_config(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        TrajectoryStore(path).extend(
            [record({"median_s": 1.0}), record({"median_s": 1.4})]
        )
        # default timing band (50%) passes; tightening it to 20% fails
        assert xpr_main(["gate", "--store", str(path)]) == 0
        assert (
            xpr_main(
                ["gate", "--store", str(path), "--timing-threshold", "0.2"]
            )
            == 1
        )

    def test_experiment_filter(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        TrajectoryStore(path).extend(
            [
                record({"wire_bytes": 1.0}),
                record({"wire_bytes": 5.0}),  # regression in "exp"
                record({"wire_bytes": 1.0}, experiment="clean"),
            ]
        )
        assert xpr_main(["gate", "--store", str(path),
                         "--experiment", "clean"]) == 0
        assert xpr_main(["gate", "--store", str(path),
                         "--experiment", "exp"]) == 1
