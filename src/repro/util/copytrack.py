"""Copy accounting for the zero-copy data plane.

The :class:`~repro.dist.ledger.WireLedger` answers "how many bytes
crossed the wire?"; the :class:`CopyLedger` here answers the complementary
question "how many bytes did *our* code memcpy while getting them there?".
Every deliberate byte copy on the serialize → frame → socket path goes
through :func:`measured_join` / :func:`record`, so "zero intermediate
copies per field" is a counted invariant a test can assert, not a hope.

Sites are dotted strings whose first component names the plane:

``wire.*``
    The compute → socket hot path (frame joins, value-precision casts).
    The zero-copy data plane keeps this at **zero** for float64 payloads;
    float32 payloads record exactly one precision cast per direction.
``arena.*``
    Explicit decodes into caller-owned buffers
    (:func:`repro.octree.serialize.deserialize_into`).

This module lives in ``repro.util`` so the octree codec can record into
it without importing ``repro.dist`` (which would be an import cycle).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Union

Buffer = Union[bytes, bytearray, memoryview]

#: Site names used by the shipped hot paths (see the module docstring for
#: the ``wire.`` / ``arena.`` namespace contract).
SITE_SERIALIZE_JOIN = "wire.serialize_join"
SITE_FRAME_JOIN = "wire.frame_join"
SITE_ENCODE_CAST = "wire.encode_cast"
SITE_DECODE_CAST = "wire.decode_cast"
SITE_DESERIALIZE_INTO = "arena.deserialize_into"

#: Prefix of the sites the zero-copy invariant is asserted over.
WIRE_PREFIX = "wire."


class CopyLedger:
    """Thread-safe per-site byte/event counters for deliberate copies.

    One instance is typically shared per process (see :func:`ledger`);
    individual instances can be created for isolated measurements.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bytes: Dict[str, int] = {}
        self._events: Dict[str, int] = {}

    def record(self, site: str, nbytes: int) -> None:
        """Count one copy of ``nbytes`` bytes at ``site``."""
        if nbytes < 0:
            raise ValueError(f"cannot record negative copy size {nbytes}")
        with self._lock:
            self._bytes[site] = self._bytes.get(site, 0) + int(nbytes)
            self._events[site] = self._events.get(site, 0) + 1

    def events(self, prefix: str = "") -> int:
        """Total copy events at sites starting with ``prefix``."""
        with self._lock:
            return sum(
                v for site, v in self._events.items() if site.startswith(prefix)
            )

    def snapshot(self) -> dict:
        """Plain-dict view: per-site bytes/events plus totals."""
        with self._lock:
            sites = {
                site: {"bytes": self._bytes[site], "events": self._events[site]}
                for site in sorted(self._bytes)
            }
        return {
            "sites": sites,
            "total_bytes": sum(s["bytes"] for s in sites.values()),
            "wire_bytes": sum(
                s["bytes"]
                for site, s in sites.items()
                if site.startswith(WIRE_PREFIX)
            ),
        }

    def reset(self) -> None:
        """Zero all counters (start of a measured region)."""
        with self._lock:
            self._bytes.clear()
            self._events.clear()


_GLOBAL = CopyLedger()


def ledger() -> CopyLedger:
    """The process-global copy ledger."""
    return _GLOBAL


def record(site: str, nbytes: int) -> None:
    """Record a copy on the process-global ledger."""
    _GLOBAL.record(site, nbytes)


def reset() -> None:
    """Reset the process-global ledger."""
    _GLOBAL.reset()


def measured_join(parts: Iterable[Buffer], site: str) -> bytes:
    """The one sanctioned way to flatten buffer segments into ``bytes``.

    Joins ``parts`` (any mix of bytes-like objects) and records the
    result's size against ``site`` on the global ledger.  Hot-path code
    must call this instead of a raw ``b"".join`` so the copy is counted
    (the WIRE002 lint rule enforces the habit on data-plane modules).
    """
    blob = b"".join(parts)
    _GLOBAL.record(site, len(blob))
    return blob
