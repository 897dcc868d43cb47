"""A weight-bounded, thread-safe LRU table.

Process-wide caches of derived objects (reconstruction plans, decoded
sampling patterns) differ wildly in entry size, so they are bounded by a
caller-defined *weight* (bytes, cells) rather than by entry count, and
evict least-recently-used entries once the total exceeds the bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar

V = TypeVar("V")


class WeightedLRU(Generic[V]):
    """LRU mapping bounded by the summed weight of its entries.

    ``get`` and ``put`` are separate so a caller builds a missing value
    *outside* the lock: concurrent first lookups of one key may each build
    it, and ``put`` hands every one of them the entry that got there
    first.  Values must therefore be pure functions of their key.  The
    newest entry is never evicted, so one over-weight value still caches.
    """

    def __init__(self, max_weight: int):
        self.max_weight = max_weight
        self.weight = 0
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[V]:
        """The value under ``key`` (now most recently used), else ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: V, weight: int) -> V:
        """Insert ``value`` unless ``key`` is already present; returns the
        resident value either way, after evicting down to the bound."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                return entry[0]
            self._entries[key] = (value, weight)
            self.weight += weight
            while self.weight > self.max_weight and len(self._entries) > 1:
                _key, (_value, evicted) = self._entries.popitem(last=False)
                self.weight -= evicted
            return value

    def items(self) -> List[Tuple[Hashable, V]]:
        """The ``(key, value)`` entries, least recently used first; reading
        them counts no hit and reorders nothing."""
        with self._lock:
            return [(key, entry[0]) for key, entry in self._entries.items()]
