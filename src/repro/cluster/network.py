"""alpha-beta network model (paper Eq 2).

The time to send a message of ``m`` bytes over one link is
``t = alpha + beta_cost * m`` where ``alpha`` is the per-message setup
latency and ``beta_cost = 1/bandwidth`` is the per-byte cost.  Summed over
the frames a rank actually sent, that is ``alpha * frames + beta *
bytes``: :meth:`Link.ledger_time` reads both counts off the rank's wire
ledger, so the modelled time of a run is charged on the bytes it moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Link:
    """A point-to-point link in the alpha-beta model.

    Parameters
    ----------
    alpha_s:
        Message setup latency, seconds (paper's alpha).
    bandwidth_bytes_per_s:
        Link bandwidth (paper's beta_link); the per-byte cost beta is its
        reciprocal.
    """

    alpha_s: float = 2.0e-6
    bandwidth_bytes_per_s: float = 12.5e9  # 100 Gb/s InfiniBand EDR

    def __post_init__(self) -> None:
        if self.alpha_s < 0 or self.bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("link parameters must be positive")

    @property
    def beta_cost_s_per_byte(self) -> float:
        """Per-byte transmission cost (seconds/byte)."""
        return 1.0 / self.bandwidth_bytes_per_s

    def ledger_time(self, snapshot: Mapping, category: str) -> float:
        """Eq 2 summed over the frames one rank sent under ``category``,
        read off the rank's wire-ledger snapshot (its
        ``sent.<category>.frames`` / ``.bytes`` counters; headers count as
        bytes, as they do on a real link)."""
        counters = snapshot["counters"]
        return self.message_time(
            counters.get(f"sent.{category}.bytes", 0),
            frames=counters.get(f"sent.{category}.frames", 0),
        )

    def message_time(self, nbytes: int, frames: int = 1) -> float:
        """Eq 2: ``t = alpha + beta * m``; over ``frames`` messages that
        carry ``nbytes`` in total, ``alpha * frames + beta * nbytes``."""
        if nbytes < 0 or frames < 0:
            raise ConfigurationError(
                f"message size and count must be >= 0, got {nbytes} B in {frames}"
            )
        return frames * self.alpha_s + nbytes * self.beta_cost_s_per_byte
