"""End-to-end CLI coverage: run -> record -> report -> gate, exit codes.

Uses a micro experiment (serial mode at n=8) so the full loop — grid
expansion, real trial execution through the default registry, store
append, gate evaluation — runs in well under a second.
"""

import functools

import pytest

from repro.cli import main
from repro.util.clock import ManualClock
from repro.xpr import cli as xpr_cli
from repro.xpr.cli import xpr_main
from repro.xpr.grid import EXPERIMENTS, ExperimentGrid, define_experiment
from repro.xpr.runner import Runner
from repro.xpr.store import TrajectoryStore


class _SteppingClock(ManualClock):
    """A manual clock that advances ``step`` seconds at every reading."""

    def __init__(self, step: float):
        super().__init__()
        self.step = step

    def now(self) -> float:
        return self.advance(self.step)


@pytest.fixture
def micro_experiment():
    define_experiment(
        "t-micro",
        ExperimentGrid(
            "t-micro",
            matrix={"seed": [0, 1]},
            fixed={"mode": "serial", "n": 8, "k": 4, "repeats": 1},
        ),
    )
    yield "t-micro"
    EXPERIMENTS.pop("t-micro", None)


class TestMainDispatch:
    def test_xpr_verb_is_routed_from_the_main_cli(self, capsys):
        assert main(["xpr", "list"]) == 0
        out = capsys.readouterr().out
        assert "ref-quick: 6 trial(s)" in out
        assert "ref-full: 15 trial(s)" in out


class TestRunVerb:
    def test_dry_run_prints_stable_trial_ids(self, capsys):
        assert xpr_main(["run", "--experiment", "ref-quick",
                         "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "7f86aeae4624" in out
        assert "6 trial(s)" in out

    def test_unknown_experiment_exits_2(self, capsys):
        assert xpr_main(["run", "--experiment", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_records_and_gate_passes(
        self, micro_experiment, tmp_path, capsys, monkeypatch
    ):
        # The trials run for real, but on an injected clock that moves a
        # quarter second per reading: every recorded ``elapsed_s`` is
        # exactly 0.25, so the gate's timing tier compares equal numbers
        # instead of two ~14 ms wall-clock samples from a noisy host.
        clock = _SteppingClock(step=0.25)
        monkeypatch.setattr(
            xpr_cli, "Runner", functools.partial(Runner, clock=clock)
        )
        store_path = tmp_path / "t.jsonl"
        args = ["--experiment", micro_experiment, "--store", str(store_path)]
        # first run: everything is new; gate has nothing to compare
        assert xpr_main(["run", *args]) == 0
        assert "2/2 trial(s) ok" in capsys.readouterr().out
        assert xpr_main(["gate", "--store", str(store_path)]) == 0
        assert "2 new trial(s)" in capsys.readouterr().out
        # second run: the structural metrics are deterministic, so the
        # gate now compares and passes
        assert xpr_main(["run", *args]) == 0
        capsys.readouterr()
        assert xpr_main(["gate", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "gate: PASS" in out
        assert "0 regression(s)" in out
        records = TrajectoryStore(store_path).records()
        assert len(records) == 4
        assert all(r.status == "ok" for r in records)
        assert all(r.metrics["elapsed_s"] == 0.25 for r in records)


class TestReportVerb:
    def test_report_writes_markdown_file(
        self, micro_experiment, tmp_path, capsys
    ):
        store_path = tmp_path / "t.jsonl"
        assert xpr_main(["run", "--experiment", micro_experiment,
                         "--store", str(store_path)]) == 0
        out_path = tmp_path / "report.md"
        assert xpr_main(["report", "--store", str(store_path),
                         "--output", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("# xpr trajectory report")
        assert "t-micro" in text

    def test_html_format(self, tmp_path, capsys):
        assert xpr_main(["report", "--store", str(tmp_path / "none.jsonl"),
                         "--format", "html"]) == 0
        assert capsys.readouterr().out.startswith("<!DOCTYPE html>")
