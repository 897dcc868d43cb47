"""Tests for the analysis package: tables, reports, and experiment drivers."""

import numpy as np
import pytest

from repro.analysis.report import ComparisonRow, ExperimentReport
from repro.analysis.tables import format_table
from repro.analysis import experiments as ex
from repro.errors import ConfigurationError


class TestFormatTable:
    def test_basic(self):
        out = format_table(["a", "b"], [[1, 2.5], ["x", 0.001]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_title(self):
        out = format_table(["a"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_row_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_scientific_for_tiny(self):
        out = format_table(["v"], [[1e-9]])
        assert "e-09" in out


class TestExperimentReport:
    def test_ratio(self):
        row = ComparisonRow("x", paper=2.0, measured=3.0)
        assert row.ratio == pytest.approx(1.5)

    def test_max_deviation(self):
        rep = ExperimentReport("T", "test")
        rep.add("a", 10.0, 11.0)
        rep.add("b", 10.0, 8.0)
        assert rep.max_ratio_deviation() == pytest.approx(0.2)

    def test_monotonic_agreement(self):
        rep = ExperimentReport("T", "test")
        rep.add("a", 1.0, 10.0)
        rep.add("b", 2.0, 20.0)
        rep.add("c", 3.0, 30.0)
        assert rep.monotonic_agreement()
        rep.add("d", 4.0, 5.0)
        assert not rep.monotonic_agreement()

    def test_render_contains_rows(self):
        rep = ExperimentReport("E0", "demo", notes="hello")
        rep.add("metric", 1.0, 1.1)
        out = rep.render()
        assert "E0" in out and "metric" in out and "hello" in out


class TestExperimentDrivers:
    def test_table1_exact(self):
        rep = ex.run_table1_memory()
        assert rep.max_ratio_deviation() < 1e-6

    def test_table2_matches_paper(self):
        rep = ex.run_table2_allowable_k()
        assert rep.max_ratio_deviation() < 1e-6  # every allowable k matches

    def test_table3_speedup_shape(self):
        rows, rep = ex.run_table3_speedup()
        speedups = [r.speedup for r in rows]
        # monotone growth in N at fixed r=4 rows (first three)
        assert speedups[0] < speedups[1] < speedups[2]
        # final speedup in the paper's 20-30x band
        assert 18 < speedups[-1] < 32
        assert rep.max_ratio_deviation() < 0.5

    def test_table3_measured_error_within_band(self):
        err = ex.measure_table3_error(n=64, k=16, r=8, sigma=2.0)
        assert err <= 0.03

    def test_flat_ablation_worse(self):
        banded = ex.measure_table3_error(n=64, k=16, r=8, sigma=2.0)
        flat = ex.measure_table3_error(n=64, k=16, r=8, sigma=2.0, flat=True)
        assert flat > banded

    def test_table4_close(self):
        rep = ex.run_table4_memory()
        assert rep.max_ratio_deviation() < 0.07

    def test_fig1_rounds(self):
        res = ex.run_fig1_comm_rounds(n=16, k=4, p=4, r=2)
        assert res.traditional_rounds == 4
        assert (res.ours_rounds, res.ours_exchanges) == (0, 1)
        assert res.results_match

    def test_fig3_octree(self):
        res = ex.run_fig3_octree()  # the paper's 32^3-in-128^3 configuration
        assert res.compression_ratio > 8
        assert 1 in res.rate_histogram  # dense sub-domain
        assert res.metadata_bytes == 20 * res.num_cells
        assert len(res.ascii_slice.splitlines()) > 10

    def test_comm_sweep_advantage(self):
        rows = ex.run_comm_time_sweep()
        for _p, t_fft, t_ours, adv in rows:
            assert t_ours < t_fft
            assert adv > 100  # Eq 6 wins by orders of magnitude at this config

    def test_batch_sweep_shrinks_with_n(self):
        rep = ex.run_batch_sweep()
        gains = [r.measured for r in rep.rows]
        assert gains[0] > gains[1] > gains[2]

    def test_dense_gpu_ceiling_8x(self):
        plain, ours = ex.dense_gpu_ceiling()
        assert plain == 1024
        assert ours == 2048  # 8x the points

    def test_massif_convergence_small(self):
        res = ex.run_massif_convergence(n=8, k=4, r=2, max_iter=100)
        assert res.effective_stress_error < 0.05
        assert res.alg1_iterations > 0
