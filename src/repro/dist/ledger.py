"""WireLedger: actual bytes-on-wire, counted per traffic category.

The one record of communication: it counts what a transport *did* move —
every frame, header bytes included, split by the traffic category the
sender declared (``exchange`` for the sparse accumulation payloads,
``bcast`` for input distribution, ``data`` for the FFT baselines'
transposes, ``control`` for handshakes/heartbeats/close).  Rounds
(:func:`alltoall_rounds`) and the alpha-beta time of Eq 2
(:meth:`repro.cluster.network.Link.ledger_time`) are read off its frame
and byte counters; cross-validating it against the exact per-destination
prediction is the CI invariant this package exists for.

Counters and histograms are the :mod:`repro.util.metrics` types, so a
ledger snapshot is the same JSON shape as a serve-layer metrics snapshot
and benchmark tooling reads both.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.errors import CommunicationError
from repro.util.metrics import DEFAULT_BYTE_BUCKETS, MetricsRegistry

#: Traffic category for the single sparse accumulation exchange.
CATEGORY_EXCHANGE = "exchange"
#: Traffic category for input distribution (scattered blocks, a resumed
#: job's checkpoint).
CATEGORY_BCAST = "bcast"
#: Traffic category for handshakes, heartbeats, and graceful close.
CATEGORY_CONTROL = "control"
#: Traffic category for generic point-to-point / all-to-all data (the FFT
#: baselines' transposes).
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


def alltoall_rounds(snapshots: Sequence[dict], category: str = CATEGORY_DATA) -> int:
    """All-to-all rounds of a job under ``category``, read off every
    rank's ledger snapshot (one per rank, so ``P = len(snapshots)``).

    A round sends one frame to each of a rank's ``P - 1`` peers, an empty
    one included, so a rank's rounds are its sent frames over ``P - 1``
    (0 when ``P == 1``).  Ranks that disagree are a protocol error.
    """
    peers = len(snapshots) - 1
    rounds = {
        snap["counters"].get(f"sent.{category}.frames", 0) // peers if peers else 0
        for snap in snapshots
    }
    if len(rounds) != 1:
        raise CommunicationError(f"ranks disagree on the {category} rounds: {rounds}")
    return rounds.pop()


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
