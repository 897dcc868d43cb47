"""Membership: the generation-numbered roster of live ranks.

A standing mesh is formed once from one rendezvous and changes only by
replacement: a member that dies mid-job is re-seated by a spare agent
at its rank.  Every change must invalidate all state derived from the
previous roster (the rank→endpoint map, the formed transports,
in-flight jobs).  The :class:`Roster` makes that invalidation explicit:
every replacement bumps a monotonically increasing *generation* number,
mesh formation and every job are stamped with the generation they
belong to, and agents *fence* incoming work against their own
generation (:meth:`Roster.fence` →
:class:`~repro.errors.StaleGenerationError`).  A rank that was replaced,
or that missed a re-form, can therefore never execute — or answer for —
a job belonging to the roster that moved on without it.

Rank assignment is deterministic: cards sort by ``agent_id``, so every
observer of the same card set forms the identical roster.  Replacements
inherit the dead member's rank (the sub-domain round-robin is keyed by
rank, so the replacement inherits exactly the dead rank's share of the
decomposition).

Liveness is not kept here: during a job the decisive death signal is a
member's control connection reaching EOF
(:func:`repro.dist.runtime.run_job`), and in-mesh silence is the
communicator's :class:`~repro.dist.heartbeat.HeartbeatMonitor`; this
module only owns who *should* be alive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.dist.jobs import fence_generation
from repro.errors import PoolError
from repro.pool.rendezvous import AgentCard

__all__ = ["Member", "Roster", "fence_generation"]


@dataclass(frozen=True)
class Member:
    """One roster slot: a rank bound to an agent card."""

    rank: int
    card: AgentCard


class Roster:
    """Rank → member map with a generation number fencing every change."""

    def __init__(self, generation: int = 0):
        self.generation = int(generation)
        self._members: Dict[int, Member] = {}

    @classmethod
    def form(cls, cards: Sequence[AgentCard]) -> "Roster":
        """Initial roster: ranks 0..N-1 assigned in agent-id order."""
        if not cards:
            raise PoolError("cannot form a roster from zero agents")
        ids = [c.agent_id for c in cards]
        if len(set(ids)) != len(ids):
            raise PoolError(f"duplicate agent ids in rendezvous: {sorted(ids)}")
        roster = cls(generation=1)
        for rank, card in enumerate(sorted(cards, key=lambda c: c.agent_id)):
            roster._members[rank] = Member(rank=rank, card=card)
        return roster

    # -- introspection ------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of live members."""
        return len(self._members)

    def members(self) -> List[Member]:
        """Members sorted by rank."""
        return [self._members[r] for r in sorted(self._members)]

    def ranks(self) -> List[int]:
        """Live ranks, sorted."""
        return sorted(self._members)

    def card(self, rank: int) -> AgentCard:
        """The card occupying ``rank``; loud when the slot is empty."""
        try:
            return self._members[rank].card
        except KeyError:
            raise PoolError(f"no member holds rank {rank}") from None

    def agent_ids(self) -> List[str]:
        """Member agent ids in rank order."""
        return [m.card.agent_id for m in self.members()]

    def rank_of(self, agent_id: str) -> Optional[int]:
        """The rank an agent holds, or ``None`` if it is not a member."""
        for member in self._members.values():
            if member.card.agent_id == agent_id:
                return member.rank
        return None

    # -- fencing ------------------------------------------------------------
    def fence(self, generation: int) -> None:
        """Reject work stamped with any generation but the current one.

        Older stamps are the classic stale-member case
        (:class:`StaleGenerationError`); *newer* stamps mean the sender
        knows a roster this observer never formed — equally fatal, and
        flagged with the same type so callers handle both as "re-sync
        before retrying".
        """
        fence_generation(generation, self.generation)

    # -- mutation (the one change; it bumps the generation) -----------------
    def replace(self, rank: int, card: AgentCard) -> Member:
        """Seat ``card`` at a dead member's ``rank``; bump generation.

        The replacement inherits the rank — and with it, exactly the
        dead rank's round-robin share of sub-domains.
        """
        if self.rank_of(card.agent_id) is not None:
            raise PoolError(f"agent {card.agent_id} is already a member")
        if rank not in self._members:
            raise PoolError(f"no member holds rank {rank} to replace")
        member = Member(rank=rank, card=card)
        self._members[rank] = member
        self.generation += 1
        return member
