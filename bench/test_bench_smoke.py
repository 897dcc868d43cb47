"""Smoke test of the benchmark harness itself (``pytest bench/``; tier-1 does
not collect this directory).  It runs the whole benchmark in ``--smoke`` mode
once and checks what it wrote, not how fast anything was."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

sys.path[:0] = [str(BENCH), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return out, done.stdout


def test_catalogue_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = WORKLOADS + list(END_TO_END) + list(PER_LAYER)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(WORKLOADS) <= 8 and len(PER_LAYER) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in END_TO_END.values())
    assert END_TO_END["setup_s"]["unit"] == "s"
    assert END_TO_END["setup_s"]["bound"] == max(m["bound"] for m in END_TO_END.values())


def test_every_workload_writes_a_valid_result(results):
    out, _stdout = results
    for workload in WORKLOADS:
        for suffix, section in (("", END_TO_END), (".traced", PER_LAYER)):
            doc = json.loads((out / f"{workload}.s0{suffix}.json").read_text())
            assert doc["schema"] == 1 and doc["workload"] == workload
            assert doc["valid"] and doc["correct"] and doc["failed"] == 0
            assert doc["attempted"] >= 1 and doc["failures"] == []
            assert {"nproc", "python", "numpy", "blas", "threads", "loadavg_1m",
                    "git_rev", "seed"} <= set(doc["env"])
            assert set(doc["env"]["threads"].values()) == {"1"}
            for name, metric in doc["metrics"].items():
                assert name in section, name
                assert metric["unit"] == section[name]["unit"]
            if not suffix:
                # every end-to-end metric, on every workload, and never 0
                assert set(doc["metrics"]) == set(END_TO_END)
                assert all(m["value"] > 0 for m in doc["metrics"].values())
            else:
                assert doc["metrics"]["core.span_coverage"]["value"] > 0.9
        spans = json.loads((out / f"{workload}.s0.trace.json").read_text())
        assert spans["columns"] == ["name", "start_s", "end_s", "parent", "op"]
        assert spans["spans"]


def test_one_command_prints_every_metric_by_name(results):
    _out, stdout = results
    printed = {line.split()[0] for line in stdout.splitlines() if line.strip()}
    assert set(END_TO_END) <= printed
    # each per-layer metric is printed by the workloads whose path has it
    assert set(PER_LAYER) <= printed
    assert "tracing overhead" in stdout


def test_contract_line_carries_the_whole_section(results):
    _out, stdout = results
    lines = [json.loads(l) for l in stdout.splitlines() if l.startswith("{")]
    assert len(lines) == 2 * len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) in (set(END_TO_END), set(PER_LAYER))
        assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_compare_accepts_a_result_set_against_itself(results):
    out, _stdout = results
    done = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(out), str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "nothing regressed" in done.stdout


def test_compare_flags_a_regression():
    from compare import verdict

    assert verdict([1.0, 1.01, 1.02], [1.2, 1.21, 1.22], "lower", 0.1)[2] == "regressed"
    assert verdict([1.0, 1.01, 1.02], [1.05, 1.06, 1.07], "lower", 0.1)[2] == "ok"
    assert verdict([1.0, 1.01, 1.02], [0.8, 0.81, 0.82], "higher", 0.1)[2] == "regressed"
    # the base's own runs disagree by more than the bound
    assert verdict([1.0, 1.3, 1.6], [1.5, 1.6, 1.7], "lower", 0.1)[2] == "unresolved"
    assert verdict([1.0, 1.3, 1.6], [0.7, 0.8, 0.9], "lower", 0.1)[2] == "ok"


def test_a_vanished_trace_target_blanks_its_metric(tmp_path):
    """A refactor that deletes a traced function must not fail the benchmark."""
    import tracing
    import workloads

    run = workloads.Run("serial_flat_n128", 0, 0.2, True, True, tmp_path)
    run.tracer = tracing.Tracer(
        [t for t in tracing.TARGETS if t[0] != "octree.reconstruct"]
        + [("octree.reconstruct", "repro.octree.interpolate.no_such_function")]
    )
    workloads.execute(run)
    assert run.failures == []
    assert run.metrics["octree.reconstruct_s"]["value"] is None
    assert run.metrics["octree.reconstruct_calls"]["value"] is None
    assert run.metrics["fft.idft_z_s"]["value"] > 0
    assert any("no_such_function" in note for note in run.tracer.notes)
