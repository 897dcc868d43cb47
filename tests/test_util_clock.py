"""Unit tests for repro.util.clock."""

import pytest

from repro.errors import ConfigurationError
from repro.util.clock import ManualClock


class TestManualClock:
    def test_starts_at_zero(self):
        assert ManualClock().now() == 0.0

    def test_advance_accumulates(self):
        clock = ManualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-1.0)
