"""Rendezvous bootstrap: how rank agents on different hosts find each other.

A standing pool has no launcher handing out a port map — agents start
independently (possibly on different machines, possibly minutes apart)
and must discover one another before any :class:`~repro.dist.tcp
.TcpTransport` mesh can form.  The rendezvous is that discovery layer:
each agent *publishes* an :class:`AgentCard` (who I am, where my control
port listens) and the pool controller *lists* the cards to build a
roster.

Two interchangeable backends behind one tiny interface:

- :class:`FileRendezvous` (``file://<dir>``) — one JSON file per card in
  a shared directory, written atomically (temp + rename).  Works across
  "hosts" that share a filesystem, and is the CI/testing workhorse: two
  independent process groups joining one directory simulate a two-host
  pool.
- :class:`TcpRendezvous` (``tcp://host:port``) — a tiny coordinator
  server (:class:`CoordinatorServer`) holding the card set in memory,
  spoken to with one-shot request/reply connections.  This is the real
  multi-host path: agents only need to reach one TCP endpoint.

All waiting goes through an injected :class:`~repro.util.clock.Clock`
(CLK001 covers this tree), so discovery timeouts are testable on a
manual clock.
"""

from __future__ import annotations

import json
import os
import threading
import uuid
from dataclasses import asdict, dataclass
from multiprocessing.connection import Client, Listener
from pathlib import Path
from typing import List, Optional, Tuple
from urllib.parse import urlparse

from repro.errors import ConfigurationError, PoolError
from repro.util.clock import Clock, MonotonicClock

__all__ = [
    "AgentCard",
    "CoordinatorServer",
    "FileRendezvous",
    "Rendezvous",
    "TcpRendezvous",
    "new_agent_id",
    "parse_rendezvous",
    "wait_for_cards",
]

#: Poll interval while waiting for agents to publish.
_WAIT_SLICE_S = 0.05


def new_agent_id() -> str:
    """A fresh globally-unique agent id (no coordination required)."""
    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class AgentCard:
    """One agent's business card: identity + where its control port is.

    Sorting is by ``agent_id`` everywhere ranks are assigned, so every
    observer of the same card set derives the same rank order.
    """

    agent_id: str
    host: str
    port: int
    pid: int

    def to_doc(self) -> dict:
        """JSON-safe dict form (the rendezvous wire/disk format)."""
        return asdict(self)

    @staticmethod
    def from_doc(doc: dict) -> "AgentCard":
        """Inverse of :meth:`to_doc`; loud on malformed documents."""
        try:
            return AgentCard(
                agent_id=str(doc["agent_id"]),
                host=str(doc["host"]),
                port=int(doc["port"]),
                pid=int(doc["pid"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PoolError(f"malformed agent card {doc!r}: {exc}") from exc


class Rendezvous:
    """Abstract card registry: publish / list / withdraw."""

    def publish(self, card: AgentCard) -> None:
        """Register ``card`` (idempotent per agent id)."""
        raise NotImplementedError

    def cards(self) -> List[AgentCard]:
        """Every currently-published card, sorted by agent id."""
        raise NotImplementedError

    def withdraw(self, agent_id: str) -> None:
        """Remove one agent's card (missing ids are not an error)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Remove every card (pool teardown)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable backend description for CLI output."""
        raise NotImplementedError


class FileRendezvous(Rendezvous):
    """Card files in a shared directory; atomic via temp + ``os.replace``.

    Readers therefore never observe a half-written card — they see the
    old content or the new content, nothing in between — which is what
    makes a plain directory safe as a multi-process discovery medium.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, agent_id: str) -> Path:
        return self.root / f"card-{agent_id}.json"

    def publish(self, card: AgentCard) -> None:
        """Write the card file atomically."""
        target = self._path(card.agent_id)
        tmp = target.with_suffix(f".tmp-{os.getpid()}")
        tmp.write_text(json.dumps(card.to_doc(), sort_keys=True))
        os.replace(tmp, target)

    def cards(self) -> List[AgentCard]:
        """All parseable card files, sorted by agent id."""
        out = []
        for path in sorted(self.root.glob("card-*.json")):
            try:
                out.append(AgentCard.from_doc(json.loads(path.read_text())))
            except (OSError, json.JSONDecodeError, PoolError):
                # a card withdrawn mid-listing or a foreign file: skip it —
                # discovery is a poll loop, the next pass sees the truth
                continue
        return sorted(out, key=lambda c: c.agent_id)

    def withdraw(self, agent_id: str) -> None:
        """Unlink the card file (already-gone is fine)."""
        try:
            self._path(agent_id).unlink()
        except FileNotFoundError:
            pass

    def clear(self) -> None:
        """Unlink every card file."""
        for card in self.cards():
            self.withdraw(card.agent_id)

    def describe(self) -> str:
        """``file://`` form of this backend."""
        return f"file://{self.root}"


class CoordinatorServer:
    """The tiny TCP rendezvous coordinator: an in-memory card set.

    Protocol: each client connection carries exactly one
    ``(op, payload)`` request and one reply — ``publish``/``cards``/
    ``withdraw``/``clear``/``ping``/``stop``.  One-shot connections keep
    the server a single blocking accept loop with no per-client state,
    which is all a bootstrap registry needs.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = Listener((host, port), family="AF_INET")
        self.host, self.port = self._listener.address
        self._cards: dict = {}
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="repro-pool-coordinator", daemon=True
        )

    def start(self) -> "CoordinatorServer":
        """Start serving; returns self for chaining."""
        self._thread.start()
        return self

    def url(self) -> str:
        """The ``tcp://host:port`` URL agents should join."""
        return f"tcp://{self.host}:{self.port}"

    def _serve(self) -> None:
        while not self._stopped.is_set():
            try:
                conn = self._listener.accept()
            except (OSError, EOFError):
                return  # listener closed underneath us: shutdown
            try:
                op, payload = conn.recv()
                conn.send(self._handle(op, payload))
            except (OSError, EOFError, ValueError, TypeError):
                pass  # a broken client never takes the registry down
            finally:
                conn.close()

    def _handle(self, op: str, payload):
        with self._lock:
            if op == "publish":
                card = AgentCard.from_doc(payload)
                self._cards[card.agent_id] = card
                return ("ok", None)
            if op == "cards":
                docs = [
                    self._cards[k].to_doc() for k in sorted(self._cards)
                ]
                return ("ok", docs)
            if op == "withdraw":
                self._cards.pop(str(payload), None)
                return ("ok", None)
            if op == "clear":
                self._cards.clear()
                return ("ok", None)
            if op == "ping":
                return ("ok", len(self._cards))
            if op == "stop":
                self._stopped.set()
                return ("ok", None)
            return ("error", f"unknown rendezvous op {op!r}")

    def stop(self) -> None:
        """Stop the accept loop and close the listener."""
        self._stopped.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass


class TcpRendezvous(Rendezvous):
    """Client side of :class:`CoordinatorServer` (``tcp://host:port``)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = int(port)

    def _call(self, op: str, payload=None):
        try:
            conn = Client((self.host, self.port), family="AF_INET")
        except OSError as exc:
            raise PoolError(
                f"rendezvous coordinator at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        try:
            conn.send((op, payload))
            status, value = conn.recv()
        except (OSError, EOFError) as exc:
            raise PoolError(
                f"rendezvous coordinator at {self.host}:{self.port} "
                f"dropped the {op!r} request: {exc}"
            ) from exc
        finally:
            conn.close()
        if status != "ok":
            raise PoolError(f"rendezvous {op!r} failed: {value}")
        return value

    def publish(self, card: AgentCard) -> None:
        """Register the card with the coordinator."""
        self._call("publish", card.to_doc())

    def cards(self) -> List[AgentCard]:
        """The coordinator's current card set."""
        return [AgentCard.from_doc(d) for d in self._call("cards")]

    def withdraw(self, agent_id: str) -> None:
        """Remove one card from the coordinator."""
        self._call("withdraw", agent_id)

    def clear(self) -> None:
        """Remove every card from the coordinator."""
        self._call("clear")

    def describe(self) -> str:
        """``tcp://`` form of this backend."""
        return f"tcp://{self.host}:{self.port}"


def parse_rendezvous(url: str) -> Rendezvous:
    """Build the backend named by a rendezvous URL.

    ``file://<dir>`` (relative or absolute) selects
    :class:`FileRendezvous`; ``tcp://host:port`` selects
    :class:`TcpRendezvous`.  Anything else fails loudly — a typo'd
    scheme must not silently become an empty pool.
    """
    parsed = urlparse(str(url))
    if parsed.scheme == "file":
        # urlparse puts the first path component of a relative file URL
        # into netloc; reassemble so both spellings work
        path = (parsed.netloc or "") + (parsed.path or "")
        if not path:
            raise ConfigurationError(f"file rendezvous URL {url!r} names no directory")
        return FileRendezvous(Path(path))
    if parsed.scheme == "tcp":
        if not parsed.hostname or not parsed.port:
            raise ConfigurationError(
                f"tcp rendezvous URL {url!r} must be tcp://host:port"
            )
        return TcpRendezvous(parsed.hostname, parsed.port)
    raise ConfigurationError(
        f"unknown rendezvous scheme {parsed.scheme!r} in {url!r} "
        "(expected file:// or tcp://)"
    )


def wait_for_cards(
    rendezvous: Rendezvous,
    count: int,
    timeout_s: float,
    clock: Optional[Clock] = None,
    exclude: Tuple[str, ...] = (),
) -> List[AgentCard]:
    """Poll until at least ``count`` cards (outside ``exclude``) exist.

    Returns the first ``count`` of them in agent-id order — the
    deterministic rank-assignment order.  Raises :class:`PoolError` on
    timeout, naming how many agents showed up.
    """
    clock = clock if clock is not None else MonotonicClock()
    deadline = clock.now() + float(timeout_s)
    skip = set(exclude)
    while True:
        cards = [c for c in rendezvous.cards() if c.agent_id not in skip]
        if len(cards) >= count:
            return cards[:count]
        if clock.now() >= deadline:
            raise PoolError(
                f"rendezvous {rendezvous.describe()} produced "
                f"{len(cards)} of {count} agents within {timeout_s}s"
            )
        clock.sleep(_WAIT_SLICE_S)
