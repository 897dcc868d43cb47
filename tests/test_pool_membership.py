"""Membership: the generation-numbered roster + liveness hooks.

The roster changes only by replacement, and every replacement must bump
the generation so stale work can be fenced; rank assignment must be
deterministic from the card set alone, and the heartbeat monitor must
measure silence on the clock it is given — all on a manual clock.
"""

import pytest

from repro.dist.heartbeat import HeartbeatMonitor
from repro.errors import PoolError, StaleGenerationError
from repro.pool.membership import Roster
from repro.pool.rendezvous import AgentCard
from repro.util.clock import ManualClock


def _card(agent_id):
    return AgentCard(agent_id=agent_id, host="127.0.0.1", port=4242, pid=1)


class TestRosterFormation:
    def test_ranks_assigned_in_agent_id_order(self):
        roster = Roster.form([_card("ccc"), _card("aaa"), _card("bbb")])
        assert roster.generation == 1
        assert roster.size == 3
        assert roster.agent_ids() == ["aaa", "bbb", "ccc"]
        assert roster.ranks() == [0, 1, 2]
        assert roster.card(2).agent_id == "ccc"

    def test_every_observer_forms_the_same_roster(self):
        cards = [_card("xx"), _card("aa"), _card("mm")]
        a = Roster.form(cards)
        b = Roster.form(list(reversed(cards)))
        assert a.agent_ids() == b.agent_ids()

    def test_zero_agents_is_loud(self):
        with pytest.raises(PoolError, match="zero agents"):
            Roster.form([])

    def test_duplicate_agent_ids_are_loud(self):
        with pytest.raises(PoolError, match="duplicate agent ids"):
            Roster.form([_card("aaa"), _card("aaa")])

    def test_rank_of_and_empty_slot(self):
        roster = Roster.form([_card("aaa")])
        assert roster.rank_of("aaa") == 0
        assert roster.rank_of("ghost") is None
        with pytest.raises(PoolError, match="no member holds rank 5"):
            roster.card(5)


class TestRosterMutation:
    def test_replace_inherits_the_dead_rank(self):
        roster = Roster.form([_card("aaa"), _card("bbb"), _card("ccc")])
        member = roster.replace(1, _card("new"))
        assert member.rank == 1
        assert roster.generation == 2
        assert roster.agent_ids() == ["aaa", "new", "ccc"]

    def test_replace_guards_both_directions(self):
        roster = Roster.form([_card("aaa"), _card("bbb")])
        with pytest.raises(PoolError, match="already a member"):
            roster.replace(0, _card("bbb"))
        with pytest.raises(PoolError, match="no member holds rank 9"):
            roster.replace(9, _card("new"))


class TestGenerationFencing:
    def test_current_generation_passes(self):
        roster = Roster.form([_card("aaa")])
        roster.fence(1)  # no raise

    def test_stale_generation_is_rejected_with_context(self):
        roster = Roster.form([_card("aaa"), _card("bbb")])
        roster.replace(1, _card("ccc"))
        with pytest.raises(StaleGenerationError) as excinfo:
            roster.fence(1)
        assert excinfo.value.seen == 1
        assert excinfo.value.current == 2

    def test_future_generation_is_equally_fatal(self):
        roster = Roster.form([_card("aaa")])
        with pytest.raises(StaleGenerationError):
            roster.fence(99)

    def test_every_mutation_invalidates_old_stamps(self):
        roster = Roster.form([_card("aaa"), _card("bbb")])
        stamp = roster.generation
        roster.replace(1, _card("ccc"))
        roster.replace(0, _card("ddd"))
        roster.replace(1, _card("eee"))
        assert roster.generation == stamp + 3
        with pytest.raises(StaleGenerationError):
            roster.fence(stamp)


class TestMonitorMembershipHooks:
    """The heartbeat monitor on a manual clock."""

    def test_record_resets_silence(self):
        clock = ManualClock()
        monitor = HeartbeatMonitor([0], timeout_s=1.0, clock=clock)
        clock.advance(0.9)
        monitor.record(0)
        clock.advance(0.9)
        assert monitor.overdue() == []
