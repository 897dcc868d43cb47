"""Unit tests for repro.util.clock."""

import pytest

from repro.errors import ConfigurationError
from repro.util.clock import ManualClock


class TestManualClock:
    def test_starts_at_zero(self):
        assert ManualClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = ManualClock()
        clock.advance(1.5, "comm")
        clock.advance(0.5, "compute")
        assert clock.now() == pytest.approx(2.0)

    def test_category_totals(self):
        clock = ManualClock()
        clock.advance(1.0, "comm")
        clock.advance(2.0, "comm")
        clock.advance(3.0, "compute")
        assert clock.category_total("comm") == pytest.approx(3.0)
        assert clock.category_total("compute") == pytest.approx(3.0)
        assert clock.category_total("missing") == 0.0

    def test_breakdown_is_copy(self):
        clock = ManualClock()
        clock.advance(1.0, "a")
        b = clock.breakdown()
        b["a"] = 99.0
        assert clock.category_total("a") == pytest.approx(1.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-1.0)
