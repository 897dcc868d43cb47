"""Liveness tracking: heartbeat beacons + a silence monitor.

Crash detection via EOF (the transports' job) catches *dead* processes;
it cannot catch a rank that is alive but wedged.  The heartbeat layer
covers that: every rank's :class:`HeartbeatSender` thread beacons a tiny
``HEARTBEAT`` frame to all peers on a fixed interval, and every rank's
:class:`HeartbeatMonitor` records the last time each peer was heard from
(any frame counts, not just beacons).  A receive loop that is otherwise
stuck consults :meth:`HeartbeatMonitor.check` and converts prolonged
silence into a typed :class:`~repro.errors.RankFailure` naming the
silent ranks.

The monitor reads the communicator's injected
:class:`~repro.util.clock.Clock`, so heartbeat expiry and receive
deadlines are measured on one time source and failure detection is unit
testable without sleeping.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.dist.ledger import CATEGORY_CONTROL
from repro.dist.wire import Frame, FrameKind
from repro.errors import CommunicationError, RankFailure
from repro.util.clock import Clock


class HeartbeatMonitor:
    """Tracks when each peer was last heard from.

    Parameters
    ----------
    peers:
        The rank ids to watch.
    timeout_s:
        Silence longer than this marks a peer overdue.
    clock:
        Time source silence is measured on.
    """

    def __init__(self, peers: List[int], timeout_s: float, clock: Clock):
        self.timeout_s = float(timeout_s)
        self.clock = clock
        now = clock.now()
        self._last_seen: Dict[int, float] = {p: now for p in peers}
        self._lock = threading.Lock()

    def record(self, src: int) -> None:
        """Note that ``src`` was just heard from (any frame counts)."""
        with self._lock:
            if src in self._last_seen:
                self._last_seen[src] = self.clock.now()

    def overdue(self) -> List[int]:
        """Ranks silent for longer than the timeout, sorted."""
        now = self.clock.now()
        with self._lock:
            return sorted(
                p for p, t in self._last_seen.items() if now - t > self.timeout_s
            )

    def check(self) -> None:
        """Raise :class:`RankFailure` if any peer is overdue."""
        silent = self.overdue()
        if silent:
            raise RankFailure(
                f"ranks {silent} have been silent for more than "
                f"{self.timeout_s}s (heartbeat timeout)"
            )


class HeartbeatSender:
    """Daemon thread beaconing ``HEARTBEAT`` frames to all peers.

    Send failures are swallowed: a dead peer is detected and reported by
    the receive path, not the beacon path.

    Shutdown is hardened so a wedged transport can never wedge the
    process: the thread is a daemon (interpreter exit never waits for
    it), :meth:`stop` is idempotent (safe to call any number of times,
    from ``close()`` paths that may run twice), and the join is bounded
    — a beacon stuck inside a hung ``send`` leaves :meth:`stop`
    returning ``False`` within the timeout instead of blocking forever.
    """

    def __init__(self, transport, interval_s: float):
        self.transport = transport
        self.interval_s = float(interval_s)
        self._stop = threading.Event()
        self._started = False
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )

    def start(self) -> None:
        """Start beaconing (no-op if already started or already stopped)."""
        if self._started or self._stop.is_set():
            return
        self._started = True
        self._thread.start()

    def stop(self, timeout_s: Optional[float] = None) -> bool:
        """Stop beaconing; returns True when the thread has exited.

        Idempotent: every call signals the stop event and re-joins with a
        bounded timeout (default ``interval_s + 1``).  A ``False`` return
        means the beacon thread is stuck in a hung transport send — it is
        a daemon, so it cannot block interpreter exit either way.
        """
        self._stop.set()
        if not self._started:
            return True
        budget = self.interval_s + 1.0 if timeout_s is None else timeout_s
        if self._thread.is_alive():
            self._thread.join(timeout=budget)
        return not self._thread.is_alive()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            for dst in range(self.transport.size):
                if dst == self.transport.rank:
                    continue
                try:
                    self.transport.send(
                        dst,
                        Frame(FrameKind.HEARTBEAT, self.transport.rank, 0),
                        CATEGORY_CONTROL,
                    )
                except (CommunicationError, OSError):
                    # Dead peer / torn-down transport: the receive path
                    # reports the death; the beacon thread just exits.
                    return
