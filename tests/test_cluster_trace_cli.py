"""Tests for the compute/communication trace analysis and the CLI."""

import numpy as np
import pytest

from repro.cli import COMMANDS, main
from repro.cluster.device import V100_32GB, XEON_GOLD_6148
from repro.cluster.network import Link
from repro.cluster.trace import (
    accelerate_compute_fraction,
    distributed_fft_breakdown,
    gpu_acceleration_story,
)
from repro.errors import ConfigurationError


class TestAccelerationProjection:
    def test_paper_numbers(self):
        """49.45% comm + 43x compute acceleration -> ~97% comm (§2.1)."""
        got = accelerate_compute_fraction(0.4945, 43.0)
        assert got == pytest.approx(0.977, abs=0.005)

    def test_identity_at_accel_one(self):
        assert accelerate_compute_fraction(0.3, 1.0) == pytest.approx(0.3)

    def test_limits(self):
        assert accelerate_compute_fraction(0.0, 10.0) == 0.0
        assert accelerate_compute_fraction(1.0, 10.0) == 1.0

    def test_monotone_in_accel(self):
        fracs = [accelerate_compute_fraction(0.5, a) for a in (1, 4, 16, 64)]
        assert fracs == sorted(fracs)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            accelerate_compute_fraction(1.5, 2.0)
        with pytest.raises(ConfigurationError):
            accelerate_compute_fraction(0.5, 0.0)

    def test_story_rows(self):
        rows = gpu_acceleration_story()
        assert len(rows) == 2
        assert rows[0][1] == pytest.approx(0.4945)
        assert rows[1][1] > 0.95


class TestBreakdown:
    def test_cpu_vs_gpu_fraction_shift(self):
        """GPU compute shrinks -> communication fraction grows (the §2.1
        motivation, reproduced from the models)."""
        link = Link()
        cpu = distributed_fft_breakdown(1024, 4, XEON_GOLD_6148, link)
        gpu = distributed_fft_breakdown(1024, 4, V100_32GB, link)
        assert gpu.comm_fraction > cpu.comm_fraction

    def test_fractions_sum_to_one(self):
        b = distributed_fft_breakdown(256, 8, XEON_GOLD_6148, Link())
        other_fraction = b.other_s / b.total_s
        assert b.comm_fraction + b.compute_fraction + other_fraction == (
            pytest.approx(1.0)
        )


class TestCLI:
    @pytest.mark.parametrize("cmd", ["table1", "table4", "eq6", "batch", "commshift"])
    def test_fast_commands_run(self, cmd, capsys):
        assert main([cmd]) == 0
        out = capsys.readouterr().out
        assert len(out) > 50

    def test_table1_output_has_rows(self, capsys):
        main(["table1"])
        out = capsys.readouterr().out
        assert "N=8192" in out

    def test_commshift_prints_97(self, capsys):
        main(["commshift"])
        out = capsys.readouterr().out
        assert "0.977" in out or "0.98" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["bogus"])

    def test_all_commands_registered(self):
        assert set(COMMANDS) == {
            "table1", "table2", "table3", "table4", "fig1", "fig3",
            "eq6", "batch", "massif", "commshift", "report",
        }
