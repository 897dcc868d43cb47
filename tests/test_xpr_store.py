"""Trajectory store: round-trips, append-only-ness, the committed baseline."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.xpr.store import TrajectoryStore, TrialRecord

REPO = Path(__file__).parent.parent


def record(trial_id="aaa111bbb222", **kwargs):
    defaults = dict(
        experiment="exp",
        trial_id=trial_id,
        git_rev="abc123",
        ts="2026-01-01T00:00:00+00:00",
        status="ok",
        params={"mode": "serial", "n": 32, "k": 8},
        metrics={"value": 1.5},
    )
    defaults.update(kwargs)
    return TrialRecord(**defaults)


class TestRoundTrip:
    def test_append_then_read_back(self, tmp_path):
        store = TrajectoryStore(tmp_path / "t.jsonl")
        original = record(error="why not")
        store.append(original)
        (loaded,) = store.records()
        assert loaded == original

    def test_missing_file_is_an_empty_trajectory(self, tmp_path):
        store = TrajectoryStore(tmp_path / "absent.jsonl")
        assert store.records() == []
        assert store.experiments() == []

    def test_extend_preserves_append_order(self, tmp_path):
        store = TrajectoryStore(tmp_path / "t.jsonl")
        store.extend([record(trial_id=f"id{i:010d}") for i in range(3)])
        store.append(record(trial_id="id0000000003"))
        ids = [r.trial_id for r in store.records()]
        assert ids == [f"id{i:010d}" for i in range(4)]

    def test_lines_are_one_compact_json_object_each(self, tmp_path):
        store = TrajectoryStore(tmp_path / "t.jsonl")
        store.extend([record(), record(trial_id="ccc333ddd444")])
        lines = (tmp_path / "t.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert ": " not in line  # compact separators
            assert json.loads(line)["schema"] == 1

    def test_malformed_line_fails_with_line_number(self, tmp_path):
        path = tmp_path / "t.jsonl"
        store = TrajectoryStore(path)
        store.append(record())
        with path.open("a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ConfigurationError, match=r"t\.jsonl:2"):
            store.records()

    def test_missing_required_key_fails_loudly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"experiment": "exp"}\n')
        with pytest.raises(ConfigurationError, match="trial_id"):
            TrajectoryStore(path).records()

    def test_history_filters_by_experiment_and_trial(self, tmp_path):
        store = TrajectoryStore(tmp_path / "t.jsonl")
        store.extend(
            [
                record(trial_id="one111111111"),
                record(trial_id="two222222222"),
                record(trial_id="one111111111", experiment="other"),
                record(trial_id="one111111111", metrics={"value": 2.0}),
            ]
        )
        history = store.history("exp", "one111111111")
        assert [r.metrics["value"] for r in history] == [1.5, 2.0]
        assert store.experiments() == ["exp", "other"]


class TestCommittedTrajectory:
    def test_store_reads_the_committed_baseline_and_it_is_all_ref_quick(self):
        # The rows seeded from the retired bench reports are gone; what
        # the CI gate compares against is ref-quick history only.
        store = TrajectoryStore(REPO / "TRAJECTORY.jsonl")
        records = store.records()
        assert records
        assert store.experiments() == ["ref-quick"]
        assert all(r.status == "ok" and r.metrics for r in records)
