"""Injectable time sources: the one clock every layer reads.

Every component of the runtimes (:mod:`repro.dist`, :mod:`repro.pool`,
:mod:`repro.serve`) reads time through a :class:`Clock` instead of
calling :func:`time.monotonic` directly, so the scheduler's
max-wait flushes, deadlines, heartbeat expiry and retry backoffs are all
testable without a single wall-clock sleep: tests inject a
:class:`ManualClock` and advance it explicitly.  Production uses
:class:`MonotonicClock`.

:meth:`Clock.sleep` is the uniform "wait until" primitive — on the manual
clock it *advances* time instead of blocking, so driver loops written
against the interface (``server.drain``) work identically under test and
in production.
"""

from __future__ import annotations

import time

from repro.errors import ConfigurationError


class Clock:
    """Abstract time source: a monotonic ``now`` plus a ``sleep``."""

    def now(self) -> float:
        """Current time in seconds (monotonic; epoch is arbitrary)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block (or advance, for manual clocks) for ``seconds``."""
        raise NotImplementedError


class MonotonicClock(Clock):
    """Wall-clock time via :func:`time.monotonic` / :func:`time.sleep`."""

    def now(self) -> float:
        """Seconds from :func:`time.monotonic`."""
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        """Really sleep (negative durations are treated as zero)."""
        if seconds > 0:
            time.sleep(seconds)


class ManualClock(Clock):
    """Deterministic clock: time moves only when told to.

    ``sleep`` advances the clock rather than blocking, so scheduler-driving
    loops run at machine speed while observing exactly the timeline the
    test scripted.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        """The scripted current time."""
        return self._now

    def sleep(self, seconds: float) -> None:
        """Advance time by ``seconds`` without blocking."""
        if seconds > 0:
            self.advance(seconds)

    def advance(self, seconds: float) -> float:
        """Move time forward by ``seconds``; returns the new now."""
        seconds = float(seconds)
        if seconds < 0:
            raise ConfigurationError(f"cannot advance time backwards ({seconds})")
        self._now += seconds
        return self._now
