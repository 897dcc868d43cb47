"""CLI contract tests: exit codes and usable error messages.

The CLI promises: 0 on success, 1 on a failed audit, 2 on bad
arguments/configuration, with a one-line message on stderr rather than a
traceback.  Also smoke-tests the ``serve-bench`` command on a tiny
configuration.
"""

import re

import pytest

from repro.cli import main


def table_row(out, quantity):
    """The value column of one printed ``quantity | value`` row."""
    match = re.search(
        rf"^{re.escape(quantity)}\s*\|\s*(.*?)\s*$", out, re.MULTILINE
    )
    assert match, f"no {quantity!r} row in:\n{out}"
    return match.group(1)


class TestExitCodes:
    def test_bad_experiment_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["not-a-thing"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_pipeline_k_not_dividing_n_exits_2_with_message(self, capsys):
        rc = main(["pipeline", "--n", "16", "--k", "5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")
        assert "divide" in captured.err

    def test_pipeline_negative_n_exits_2_with_message(self, capsys):
        rc = main(["pipeline", "--n", "-4"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")

    def test_serve_bench_bad_policy_exits_2(self, capsys):
        rc = main([
            "serve-bench", "--n", "16", "--k", "4", "--requests", "2",
            "--policy", "bogus",
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "policy spec" in captured.err

    def test_pipeline_happy_path_exits_0(self, capsys):
        rc = main(["pipeline", "--n", "16", "--k", "4"])
        assert rc == 0
        assert "pipeline run" in capsys.readouterr().out


class TestFailedAuditExits1:
    """A printed ``bitwise identical ... | False`` must fail the process:
    CI's dist-run and serve-bench steps key on the exit code."""

    def test_dist_run_mismatch_exits_1(self, capsys, monkeypatch):
        from repro.core.pipeline import LowCommConvolution3D

        run_serial = LowCommConvolution3D.run_serial

        def off_by_one(self, field):
            result = run_serial(self, field)
            result.approx[0, 0, 0] += 1.0
            return result

        # dist_run never calls run_serial: only the reference is skewed
        monkeypatch.setattr(LowCommConvolution3D, "run_serial", off_by_one)
        rc = main([
            "dist-run", "--ranks", "2", "--transport", "local",
            "--n", "16", "--k", "4", "--policy", "flat:2",
        ])
        out = capsys.readouterr().out
        assert table_row(out, "bitwise identical to run_serial") == "False"
        assert rc == 1

    def test_serve_bench_mismatch_exits_1(self, capsys, monkeypatch):
        from repro.serve import loadgen

        run_naive_baseline = loadgen.run_naive_baseline

        def off_by_one(spec, policy, clock=None):
            elapsed, results = run_naive_baseline(spec, policy, clock)
            results[-1][0, 0, 0] += 1.0
            return elapsed, results

        monkeypatch.setattr(loadgen, "run_naive_baseline", off_by_one)
        rc = main([
            "serve-bench", "--n", "16", "--k", "4", "--requests", "2",
            "--policy", "flat:2", "--max-wait", "0.01",
        ])
        out = capsys.readouterr().out
        assert table_row(out, "bitwise identical") == "False"
        assert rc == 1


class TestServeBenchSmoke:
    def test_tiny_serve_bench_prints_audit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main([
            "serve-bench",
            "--n", "32", "--k", "8",
            "--requests", "4",
            "--policy", "flat:4",
            "--max-batch-size", "4",
            "--max-wait", "0.01",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "serve-bench" in out
        assert table_row(out, "requests (kernels)") == "4 (1)"
        assert table_row(out, "bitwise identical") == "True"
        assert float(table_row(out, "naive (s)")) > 0
        assert float(table_row(out, "batched (s)")) > 0
        assert list(tmp_path.iterdir()) == []  # the audit writes no file
