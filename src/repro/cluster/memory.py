"""Byte-exact device memory ledger with capacity enforcement.

The paper's scalability results are memory-capacity results: "allowable k"
in Table 2 is the largest sub-domain whose pipeline working set fits the
GPU, and Table 4 is the gap between an algorithmic estimate and what cuFFT
actually allocates.  :class:`MemoryTracker` is the substrate for both — the
pipeline charges every buffer it would allocate on the device, and an
allocation beyond capacity raises :class:`~repro.errors.DeviceMemoryError`
exactly where a real ``cudaMalloc`` would fail.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError, DeviceMemoryError


@dataclass
class Allocation:
    """A live allocation on a tracked device."""

    name: str
    nbytes: int
    freed: bool = field(default=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self.freed else "live"
        return f"Allocation({self.name!r}, {self.nbytes} B, {state})"


class MemoryTracker:
    """Tracks allocations against a capacity, recording peak usage.

    Parameters
    ----------
    capacity_bytes:
        Device capacity; ``None`` disables enforcement (pure accounting).
    device_name:
        Label used in error messages and reports.
    """

    def __init__(self, capacity_bytes: Optional[int] = None, device_name: str = "device"):
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.device_name = device_name
        self._current = 0
        self._peak = 0
        self._live: List[Allocation] = []
        self._events: List[Tuple[str, str, int]] = []  # (op, name, bytes)

    @property
    def current_bytes(self) -> int:
        """Bytes currently allocated."""
        return self._current

    @property
    def peak_bytes(self) -> int:
        """High-water mark over the tracker's lifetime."""
        return self._peak

    @property
    def events(self) -> List[Tuple[str, str, int]]:
        """Chronological (op, name, nbytes) ledger for inspection in tests."""
        return list(self._events)

    def alloc(self, name: str, nbytes: int) -> Allocation:
        """Allocate ``nbytes``; raises :class:`DeviceMemoryError` on overflow."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ConfigurationError(f"allocation size must be >= 0, got {nbytes}")
        if self.capacity_bytes is not None and self._current + nbytes > self.capacity_bytes:
            raise DeviceMemoryError(
                f"{self.device_name}: allocating {nbytes} B for {name!r} exceeds "
                f"capacity {self.capacity_bytes} B "
                f"(in use: {self._current} B)",
                requested=nbytes,
                available=self.capacity_bytes - self._current,
            )
        allocation = Allocation(name=name, nbytes=nbytes)
        self._live.append(allocation)
        self._current += nbytes
        self._peak = max(self._peak, self._current)
        self._events.append(("alloc", name, nbytes))
        return allocation

    def free(self, allocation: Allocation) -> None:
        """Release an allocation; double-free raises."""
        if allocation.freed:
            raise ConfigurationError(f"double free of {allocation.name!r}")
        allocation.freed = True
        self._live.remove(allocation)
        self._current -= allocation.nbytes
        self._events.append(("free", allocation.name, allocation.nbytes))
        assert self._current >= 0, "memory ledger went negative"

    @contextmanager
    def allocate(self, name: str, nbytes: int) -> Iterator[Allocation]:
        """Scoped allocation: freed on context exit."""
        allocation = self.alloc(name, nbytes)
        try:
            yield allocation
        finally:
            if not allocation.freed:
                self.free(allocation)
