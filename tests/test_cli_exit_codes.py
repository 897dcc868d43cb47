"""CLI contract tests: exit codes and usable error messages.

The CLI promises: 0 on success, 1 on a failed audit or a failed standing
pool, 2 on bad arguments/configuration, with a one-line message on
stderr rather than a traceback.  Also smoke-tests the ``serve-bench``
command on a tiny configuration.
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

    def test_pipeline_honours_policy(self, capsys):
        """``flat:1`` samples every point, so the result is the dense
        convolution to round-off."""
        rc = main(["pipeline", "--n", "16", "--k", "4", "--policy", "flat:1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert table_row(out, "policy") == "flat:1"
        assert float(table_row(out, "relative L2 error")) < 1e-9

    def test_verb_rejects_flags_it_does_not_read_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pipeline", "--ranks", "7", "--overlap", "--kill-job", "3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --ranks 7 --overlap --kill-job 3" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kill-job", "2", "--kill-stage", "bogus"],
            ["--kill-job", "2", "--kill-stage", "stream_send"],
            ["--kill-job", "2", "--kill-rank", "5"],
            ["--kill-job", "0"],
        ],
        ids=["stage-unknown", "stage-overlap-only", "rank-out-of-range", "job-zero"],
    )
    def test_serve_kill_flags_that_cannot_fire_exit_2_before_work(
        self, capsys, monkeypatch, tmp_path, flags
    ):
        """A kill that would never fire must not run the stream and report
        success: serve rejects it before the reference pass or a dial."""
        from repro.pool.pool import RankPool
        from repro.serve import loadgen

        def unreachable(*args, **kwargs):
            pytest.fail("serve did work before rejecting its kill flags")

        monkeypatch.setattr(RankPool, "connect", unreachable)
        monkeypatch.setattr(loadgen, "run_batched_server", unreachable)
        try:
            rc = main([
                "serve", "--backend", f"pool://file://{tmp_path}", "--ranks", "2",
                "--n", "16", "--k", "4", "--requests", "2", *flags,
            ])
        except SystemExit as exc:
            rc = exc.code
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert flags[-2] in err

    def test_serve_pool_failure_exits_1(self, capsys, monkeypatch, tmp_path):
        """An unreachable agent is an operational failure, not bad usage."""
        from repro.errors import PoolError
        from repro.pool.pool import RankPool

        def refused(self, expected, timeout_s=30.0):
            raise PoolError("agent 'a1' (rank 1) unreachable: Connection refused")

        monkeypatch.setattr(RankPool, "connect", refused)
        rc = main([
            "serve", "--backend", f"pool://file://{tmp_path}", "--ranks", "2",
            "--n", "16", "--k", "4", "--requests", "2", "--policy", "flat:2",
            "--max-wait", "0.01",
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "unreachable" in err

    @pytest.mark.parametrize("verb", ["pool"])
    def test_passthrough_verbs_own_their_help(self, capsys, verb):
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--help"])
        assert excinfo.value.code == 0
        assert f"usage: repro {verb}" in capsys.readouterr().out


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
