"""WireLedger: actual bytes-on-wire, counted per traffic category.

The simulated substrate's :class:`~repro.cluster.comm.TrafficLedger`
counts what a collective *would* move; this ledger counts what a
transport *did* move — every frame, header bytes included, split by the
traffic category the sender declared (``exchange`` for the sparse
accumulation payloads, ``bcast`` for input distribution, ``control`` for
handshakes/heartbeats/close).  Cross-validating this ledger against the
exact per-destination prediction, and the simulated one against the
Eq 6 allgather count, is the CI invariant this package exists for.

Counters and histograms are the :mod:`repro.util.metrics` types, so a
ledger snapshot is the same JSON shape as a serve-layer metrics snapshot
and benchmark tooling reads both.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional

from repro.util.metrics import DEFAULT_BYTE_BUCKETS, MetricsRegistry

#: Traffic category for the single sparse accumulation exchange.
CATEGORY_EXCHANGE = "exchange"
#: Traffic category for input distribution (scattered blocks, kernel
#: announcements and misses, a resumed job's checkpoint).
CATEGORY_BCAST = "bcast"
#: Traffic category for handshakes, heartbeats, and graceful close.
CATEGORY_CONTROL = "control"
#: Traffic category for generic point-to-point / alltoall data.
CATEGORY_DATA = "data"


class WireLedger:
    """Per-endpoint wire accounting over a :class:`MetricsRegistry`.

    Every sent and received frame is recorded with its *full* wire size
    (header + payload) under ``sent.<category>.bytes`` /
    ``recv.<category>.bytes`` counters plus frame counts, and observed
    into a frame-size histogram.

    The streamed exchange additionally attributes traffic to *overlap
    windows*: inside a :meth:`window` context every frame is also counted
    under ``window.<label>.sent.<category>.bytes`` (and the ``recv``
    mirror), so the exchange accounting can be audited per in-flight chunk.  The
    active window is **thread-local** — the stream's sender thread tags
    its own frames without perturbing what the application or heartbeat
    threads record — and window counters are strictly additive *extras*:
    the category totals (``sent.exchange.bytes``, ...) are unchanged, and
    the window counters for a category always sum to the portion of that
    category recorded inside windows.
    """

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self._window = threading.local()

    @contextmanager
    def window(self, label: str) -> Iterator[None]:
        """Attribute frames recorded by this thread to overlap window ``label``."""
        stack = getattr(self._window, "stack", None)
        if stack is None:
            stack = self._window.stack = []
        stack.append(str(label))
        try:
            yield
        finally:
            stack.pop()

    def _active_window(self) -> Optional[str]:
        stack = getattr(self._window, "stack", None)
        return stack[-1] if stack else None

    def record_send(self, category: str, nbytes: int) -> None:
        """Count one outgoing frame of ``nbytes`` total wire bytes."""
        self.metrics.counter(f"sent.{category}.frames").inc()
        self.metrics.counter(f"sent.{category}.bytes").inc(int(nbytes))
        self.metrics.observe("frame.bytes", float(nbytes), DEFAULT_BYTE_BUCKETS)
        label = self._active_window()
        if label is not None:
            self.metrics.counter(f"window.{label}.sent.{category}.bytes").inc(
                int(nbytes)
            )

    def record_recv(self, category: str, nbytes: int) -> None:
        """Count one incoming frame of ``nbytes`` total wire bytes."""
        self.metrics.counter(f"recv.{category}.frames").inc()
        self.metrics.counter(f"recv.{category}.bytes").inc(int(nbytes))
        label = self._active_window()
        if label is not None:
            self.metrics.counter(f"window.{label}.recv.{category}.bytes").inc(
                int(nbytes)
            )

    def bytes_sent(self, category: Optional[str] = None) -> int:
        """Total bytes sent, optionally restricted to one category."""
        return self._total("sent", "bytes", category)

    def bytes_received(self, category: Optional[str] = None) -> int:
        """Total bytes received, optionally restricted to one category."""
        return self._total("recv", "bytes", category)

    def frames_sent(self, category: Optional[str] = None) -> int:
        """Total frames sent, optionally restricted to one category."""
        return self._total("sent", "frames", category)

    def _total(self, direction: str, unit: str, category: Optional[str]) -> int:
        counters = self.metrics.snapshot()["counters"]
        if category is not None:
            return int(counters.get(f"{direction}.{category}.{unit}", 0))
        return sum(
            v
            for k, v in counters.items()
            if k.startswith(f"{direction}.") and k.endswith(f".{unit}")
        )

    def window_bytes(
        self, direction: str = "sent", category: Optional[str] = None
    ) -> Dict[str, int]:
        """Per-window byte totals: ``{window label: bytes}``.

        ``direction`` is ``"sent"`` or ``"recv"``; ``category`` restricts
        to one traffic category (all categories summed when ``None``).
        The values sum to the bytes of that direction/category that were
        recorded inside :meth:`window` contexts.
        """
        out: Dict[str, int] = {}
        for name, value in self.metrics.snapshot()["counters"].items():
            if not name.startswith("window.") or not name.endswith(".bytes"):
                continue
            label, _, rest = name[len("window.") :].rpartition(f".{direction}.")
            if not label:
                continue
            cat = rest[: -len(".bytes")]
            if category is not None and cat != category:
                continue
            out[label] = out.get(label, 0) + int(value)
        return out

    def snapshot(self) -> dict:
        """JSON-safe snapshot (same schema as serve metrics snapshots)."""
        return self.metrics.snapshot()


def merge_wire_snapshots(snapshots: Iterable[dict]) -> Dict[str, int]:
    """Sum the counters of several per-rank ledger snapshots.

    Returns a flat ``{counter name: total}`` dict — the whole-job view of
    traffic (e.g. ``sent.exchange.bytes`` summed over every rank is the
    job's total sparse-exchange wire volume).
    """
    totals: Dict[str, int] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def sent_wire_bytes(totals: Dict[str, int]) -> int:
    """Total bytes sent across every category of a merged counter dict.

    Operates on the flat shape :func:`merge_wire_snapshots` returns (or
    :attr:`~repro.pool.pool.PoolJobReport.wire_totals`), so callers can
    charge one number per job without knowing the category taxonomy.
    """
    return sum(
        int(v)
        for k, v in totals.items()
        if k.startswith("sent.") and k.endswith(".bytes")
    )

