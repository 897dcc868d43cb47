"""Simulated MPI-style communicator with a traffic ledger.

This is a traffic and time *model*, not a runtime: the FFT baselines
(:mod:`repro.baselines`) run their bulk-synchronous phases on it — per-rank
local compute written as a plain loop, then a collective — and the
low-communication pipeline books its single exchange on it after the fact
(:func:`repro.core.distributed_runner.book_exchange`).  The pipeline's real
rank runtime is :mod:`repro.dist`.  Collectives take a sequence of per-rank
inputs and return the per-rank outputs, performing the *actual* numpy data
movement — so a distributed FFT baseline run on this communicator computes
the same bits a real MPI run would — while recording:

- the number of collective *rounds* by type (the evidence behind Fig 1's
  "several all-to-all steps" vs "one sparse exchange"), and
- the total bytes crossing the network,

and charging alpha-beta time (Eq 2) to a
:class:`~repro.util.clock.ManualClock` — the same clock type ranks, pools
and servers accept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.network import Network
from repro.errors import CommunicationError, RankFailure
from repro.util.clock import ManualClock


@dataclass
class TrafficLedger:
    """Counts of collective rounds and bytes moved over the network."""

    rounds_by_type: Dict[str, int] = field(default_factory=dict)
    bytes_by_type: Dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, nbytes: int) -> None:
        self.rounds_by_type[kind] = self.rounds_by_type.get(kind, 0) + 1
        self.bytes_by_type[kind] = self.bytes_by_type.get(kind, 0) + int(nbytes)

    @property
    def total_rounds(self) -> int:
        return sum(self.rounds_by_type.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_type.values())

    @property
    def alltoall_rounds(self) -> int:
        return self.rounds_by_type.get("alltoall", 0) + self.rounds_by_type.get(
            "alltoallv", 0
        )


def _nbytes(arr: np.ndarray) -> int:
    return int(np.asarray(arr).nbytes)


class SimulatedComm:
    """A P-rank communicator executing real buffer exchange in-process.

    Parameters
    ----------
    size:
        Number of ranks.
    network:
        alpha-beta network model used to charge simulated time; defaults to
        a fully connected network over the default link.
    clock:
        Simulated clock to charge; a private clock is created if omitted.
    """

    def __init__(
        self,
        size: int,
        network: Optional[Network] = None,
        clock: Optional[ManualClock] = None,
    ):
        if size < 1:
            raise CommunicationError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self.network = network or Network(num_workers=size)
        if self.network.num_workers != size:
            raise CommunicationError(
                f"network has {self.network.num_workers} workers, comm has {size}"
            )
        self.clock = clock or ManualClock()
        self.ledger = TrafficLedger()
        self._dead: set[int] = set()

    # -- failure injection ---------------------------------------------------
    def kill_rank(self, rank: int) -> None:
        """Mark ``rank`` dead; subsequent collectives raise RankFailure."""
        self._check_rank(rank)
        self._dead.add(rank)

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.size:
            raise CommunicationError(f"rank {rank} out of range [0, {self.size})")

    def _check_alive(self) -> None:
        if self._dead:
            dead = sorted(self._dead)
            raise RankFailure(f"collective with dead ranks {dead}")

    def _check_participants(self, per_rank: Sequence, what: str) -> None:
        if len(per_rank) != self.size:
            raise CommunicationError(
                f"{what} needs one entry per rank ({self.size}), got {len(per_rank)}"
            )

    # -- collectives ----------------------------------------------------------
    def _alltoall(
        self, kind: str, send: Sequence[Sequence[np.ndarray]]
    ) -> tuple[List[List[np.ndarray]], List[int]]:
        """Shared body of both all-to-alls: validate, move, record bytes.

        Returns ``recv`` (``recv[j][i] = send[i][j]``) and the byte size
        of every off-diagonal message, from which each flavour derives
        its own time rule.
        """
        self._check_alive()
        self._check_participants(send, f"{kind} send")
        for i, row in enumerate(send):
            if len(row) != self.size:
                raise CommunicationError(
                    f"rank {i} {kind} row has {len(row)} entries, expected {self.size}"
                )
        recv: List[List[np.ndarray]] = [
            [np.asarray(send[i][j]) for i in range(self.size)] for j in range(self.size)
        ]
        pair_bytes = [
            _nbytes(send[i][j])
            for i in range(self.size)
            for j in range(self.size)
            if i != j
        ]
        self.ledger.record(kind, sum(pair_bytes))
        return recv, pair_bytes

    def alltoall(self, send: Sequence[Sequence[np.ndarray]]) -> List[List[np.ndarray]]:
        """All-to-all: ``send[i][j]`` goes from rank i to rank j.

        Returns ``recv`` with ``recv[j][i] = send[i][j]``.  Counts one
        all-to-all round; bytes = all off-diagonal traffic; time is charged
        at the mean pair size.
        """
        recv, pair_bytes = self._alltoall("alltoall", send)
        per_pair = sum(pair_bytes) // len(pair_bytes) if pair_bytes else 0
        self.clock.advance(self.network.alltoall_time(per_pair), category="comm")
        return recv

    def alltoallv(
        self, send: Sequence[Sequence[np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """Variable-size all-to-all; identical semantics, separate ledger
        key, time charged at the largest pair size."""
        recv, pair_bytes = self._alltoall("alltoallv", send)
        self.clock.advance(
            self.network.alltoall_time(max(pair_bytes, default=0)), category="comm"
        )
        return recv

    def allgather(self, send: Sequence[np.ndarray]) -> List[List[np.ndarray]]:
        """Allgather: every rank receives every rank's contribution."""
        self._check_alive()
        self._check_participants(send, "allgather send")
        gathered = [np.asarray(s) for s in send]
        wire = sum(_nbytes(s) for s in gathered) * max(0, self.size - 1)
        self.ledger.record("allgather", wire)
        per_rank = max((_nbytes(s) for s in gathered), default=0)
        self.clock.advance(self.network.allgather_time(per_rank), category="comm")
        return [list(gathered) for _ in range(self.size)]

    def gather(self, send: Sequence[np.ndarray], root: int = 0) -> List[np.ndarray]:
        """Gather all contributions at ``root``; returns the root's list."""
        self._check_alive()
        self._check_participants(send, "gather send")
        self._check_rank(root)
        gathered = [np.asarray(s) for s in send]
        wire = sum(_nbytes(s) for i, s in enumerate(gathered) if i != root)
        self.ledger.record("gather", wire)
        per_rank = max(
            (_nbytes(s) for i, s in enumerate(gathered) if i != root), default=0
        )
        self.clock.advance(self.network.link.message_time(per_rank), category="comm")
        return gathered

    def bcast(self, value: np.ndarray, root: int = 0) -> List[np.ndarray]:
        """Broadcast ``value`` from ``root``; returns per-rank copies."""
        self._check_alive()
        self._check_rank(root)
        value = np.asarray(value)
        wire = _nbytes(value) * max(0, self.size - 1)
        self.ledger.record("bcast", wire)
        self.clock.advance(self.network.broadcast_time(_nbytes(value)), category="comm")
        return [value.copy() for _ in range(self.size)]
