"""Unit tests for the metrics primitives (repro.util.metrics)."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.util.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter().inc(-1)


class TestGauge:
    def test_tracks_high_water_mark(self):
        g = Gauge()
        g.set(3)
        g.inc(-2)
        assert g.value == 1.0
        assert g.max_value == 3.0


class TestHistogram:
    def test_bucketing_and_stats(self):
        h = Histogram(buckets=[1.0, 10.0])
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        assert h.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert h.count == 4
        assert h.sum == pytest.approx(106.5)
        assert h.min == 0.5 and h.max == 100.0
        assert h.mean == pytest.approx(106.5 / 4)

    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=[2.0, 1.0])


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_snapshot_is_json_roundtrippable(self):
        reg = MetricsRegistry()
        reg.counter("done").inc(2)
        reg.gauge("depth").set(7)
        reg.observe("lat", 0.3)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["done"] == 2
        assert snap["gauges"]["depth"]["value"] == 7.0
        assert snap["histograms"]["lat"]["count"] == 1

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        snap = reg.snapshot()
        reg.counter("x").inc()
        assert snap["counters"]["x"] == 1

