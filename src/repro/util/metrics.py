"""Metrics substrate: counters, gauges, histograms in one registry.

The serving layer instruments itself the way a production service would —
every admission decision, batch, retry, and completion increments a metric
— and the rank runtime's :class:`~repro.dist.ledger.WireLedger` counts
wire bytes on the same types.  The whole registry snapshots to a
plain-JSON dict, so benchmark output and operational dashboards read one
schema.

Design choices kept deliberately simple and dependency-free:

- histograms use fixed upper-bound buckets (Prometheus-style cumulative
  counts are derivable from the per-bucket counts in the snapshot);
- one lock per registry (metric updates are tiny compared to convolution
  work, so contention is irrelevant at this layer's throughput);
- snapshots are deep copies — safe to mutate or serialize after more
  traffic arrives.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError

#: Default latency buckets (seconds): 1 ms .. 60 s, roughly x4 steps.
DEFAULT_LATENCY_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)

#: Default size buckets (requests per batch, queue depths, ...).
DEFAULT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Default byte-size buckets (wire frames, payloads): 64 B .. 64 MiB.
DEFAULT_BYTE_BUCKETS = (
    64.0,
    1024.0,
    16384.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
    67108864.0,
)


class Counter:
    """Monotonically increasing count (completions, rejections, ...)."""

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ConfigurationError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Point-in-time level (queue depth, in-flight batches)."""

    def __init__(self) -> None:
        self.value = 0.0
        #: high-water mark since creation
        self.max_value = 0.0

    def set(self, value: float) -> None:
        """Set the level (and track the high-water mark)."""
        self.value = float(value)
        self.max_value = max(self.max_value, self.value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the level by ``amount`` (may be negative)."""
        self.set(self.value + amount)


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max.

    ``buckets`` are inclusive upper bounds; observations beyond the last
    bound land in a final overflow bucket, so ``len(counts) ==
    len(buckets) + 1`` in the snapshot.
    """

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = [float(b) for b in buckets]
        if not bounds or sorted(bounds) != bounds:
            raise ConfigurationError("histogram buckets must be sorted and non-empty")
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        i = 0
        for i, bound in enumerate(self.buckets):  # noqa: B007 - index reused
            if value <= bound:
                break
        else:
            i = len(self.buckets)
        self.counts[i] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named metrics with a JSON-able snapshot.

    Metrics are created on first use (``registry.counter("x").inc()``)
    so instrumentation points never need registration boilerplate.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        with self._lock:
            return self._counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        with self._lock:
            return self._gauges.setdefault(name, Gauge())

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fix on creation)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(buckets)
                self._histograms[name] = hist
            return hist

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        """Shorthand for ``histogram(name, buckets).observe(value)``."""
        self.histogram(name, buckets).observe(value)

    def snapshot(self) -> dict:
        """Deep-copied, JSON-serializable view of every metric."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {
                    k: {"value": g.value, "max": g.max_value}
                    for k, g in sorted(self._gauges.items())
                },
                "histograms": {
                    k: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "count": h.count,
                        "sum": h.sum,
                        "mean": h.mean,
                        "min": h.min,
                        "max": h.max,
                    }
                    for k, h in sorted(self._histograms.items())
                },
            }
