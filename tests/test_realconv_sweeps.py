"""Tests for the error / compression trade-off sweeps."""

import pytest

from repro.analysis.sweeps import error_compression_sweep, pareto_front, TradeoffPoint


class TestSweeps:
    @pytest.fixture(scope="class")
    def points(self):
        return error_compression_sweep(
            n=32, k=8, sigma=1.5, r_values=(2, 4), include_flat=True
        )

    def test_sweep_covers_configs(self, points):
        assert len(points) == 4  # 2 rates x (banded, flat)
        assert {p.r_far for p in points} == {2, 4}

    def test_error_grows_with_rate_flat(self, points):
        flat = sorted((p for p in points if p.flat), key=lambda p: p.r_far)
        assert flat[0].l2_error <= flat[1].l2_error

    def test_samples_shrink_with_rate_flat(self, points):
        flat = sorted((p for p in points if p.flat), key=lambda p: p.r_far)
        assert flat[0].samples > flat[1].samples

    def test_compression_ratio_consistent(self, points):
        for p in points:
            assert p.compression_ratio == pytest.approx(32**3 / p.samples)

    def test_modeled_time_positive(self, points):
        assert all(p.modeled_time_s > 0 for p in points)

    def test_pareto_front_nonempty_subset(self, points):
        front = pareto_front(points)
        assert front
        assert set(id(p) for p in front) <= set(id(p) for p in points)

    def test_pareto_front_sorted_and_undominated(self, points):
        front = pareto_front(points)
        samples = [p.samples for p in front]
        assert samples == sorted(samples)
        # along the front, fewer samples must mean more error
        for a, b in zip(front, front[1:]):
            assert a.l2_error >= b.l2_error

    def test_pareto_dominance_logic(self):
        mk = lambda e, s: TradeoffPoint(2, False, s, 1.0, e, 1.0)
        pts = [mk(0.1, 100), mk(0.2, 200), mk(0.05, 300)]
        front = pareto_front(pts)
        # (0.2, 200) dominated by (0.1, 100)
        assert all(not (p.l2_error == 0.2) for p in front)
        assert len(front) == 2
