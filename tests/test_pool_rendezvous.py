"""Rendezvous bootstrap: cards, both backends, URL parsing, waiting.

The rendezvous is the only discovery layer a standing pool has, so both
backends must behave identically behind the :class:`Rendezvous`
interface, malformed input must fail loudly, and all waiting must be
drivable from a :class:`~repro.util.clock.ManualClock`.
"""

import json

import pytest

from repro.errors import ConfigurationError, PoolError
from repro.pool.rendezvous import (
    AgentCard,
    CoordinatorServer,
    FileRendezvous,
    TcpRendezvous,
    new_agent_id,
    parse_rendezvous,
    wait_for_cards,
)
from repro.util.clock import ManualClock


def _card(agent_id, port=4242):
    return AgentCard(agent_id=agent_id, host="127.0.0.1", port=port, pid=1)


class TestAgentCard:
    def test_doc_roundtrip(self):
        card = _card("abc123")
        assert AgentCard.from_doc(card.to_doc()) == card

    def test_malformed_doc_is_loud(self):
        with pytest.raises(PoolError, match="malformed agent card"):
            AgentCard.from_doc({"agent_id": "x", "host": "h"})
        with pytest.raises(PoolError, match="malformed agent card"):
            AgentCard.from_doc({"agent_id": "x", "host": "h", "port": "nope", "pid": 1})

    def test_agent_ids_are_unique(self):
        ids = {new_agent_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(i) == 12 for i in ids)


class TestFileRendezvous:
    def test_publish_list_withdraw_clear(self, tmp_path):
        rdv = FileRendezvous(tmp_path)
        rdv.publish(_card("bbb"))
        rdv.publish(_card("aaa"))
        assert [c.agent_id for c in rdv.cards()] == ["aaa", "bbb"]
        rdv.withdraw("aaa")
        rdv.withdraw("aaa")  # idempotent
        assert [c.agent_id for c in rdv.cards()] == ["bbb"]
        rdv.clear()
        assert rdv.cards() == []

    def test_republish_replaces_in_place(self, tmp_path):
        rdv = FileRendezvous(tmp_path)
        rdv.publish(_card("aaa", port=1))
        rdv.publish(_card("aaa", port=2))
        (only,) = rdv.cards()
        assert only.port == 2

    def test_garbage_files_are_skipped(self, tmp_path):
        rdv = FileRendezvous(tmp_path)
        rdv.publish(_card("aaa"))
        (tmp_path / "card-junk.json").write_text("{not json")
        (tmp_path / "card-short.json").write_text(json.dumps({"agent_id": "x"}))
        (tmp_path / "unrelated.txt").write_text("ignore me")
        assert [c.agent_id for c in rdv.cards()] == ["aaa"]

    def test_describe_names_the_directory(self, tmp_path):
        assert FileRendezvous(tmp_path).describe() == f"file://{tmp_path}"


class TestTcpRendezvous:
    @pytest.fixture
    def coordinator(self):
        server = CoordinatorServer().start()
        yield server
        server.stop()

    def test_publish_list_withdraw_clear(self, coordinator):
        rdv = TcpRendezvous(coordinator.host, coordinator.port)
        rdv.publish(_card("bbb"))
        rdv.publish(_card("aaa"))
        assert [c.agent_id for c in rdv.cards()] == ["aaa", "bbb"]
        rdv.withdraw("bbb")
        assert [c.agent_id for c in rdv.cards()] == ["aaa"]
        rdv.clear()
        assert rdv.cards() == []

    def test_coordinator_url_parses_back(self, coordinator):
        rdv = parse_rendezvous(coordinator.url())
        assert isinstance(rdv, TcpRendezvous)
        rdv.publish(_card("aaa"))
        assert len(rdv.cards()) == 1

    def test_unreachable_coordinator_is_a_pool_error(self):
        dead = CoordinatorServer()
        host, port = dead.host, dead.port
        dead.stop()
        with pytest.raises(PoolError, match="unreachable"):
            TcpRendezvous(host, port).cards()


class TestParseRendezvous:
    def test_file_scheme_absolute_and_relative(self, tmp_path, monkeypatch):
        absolute = parse_rendezvous(f"file://{tmp_path}")
        assert isinstance(absolute, FileRendezvous)
        assert absolute.root == tmp_path
        # a relative root is made under the working directory
        monkeypatch.chdir(tmp_path)
        relative = parse_rendezvous("file://some/dir")
        assert str(relative.root) == "some/dir"
        assert (tmp_path / "some" / "dir").is_dir()

    def test_file_scheme_without_directory(self):
        with pytest.raises(ConfigurationError, match="names no directory"):
            parse_rendezvous("file://")

    def test_tcp_scheme_requires_host_and_port(self):
        rdv = parse_rendezvous("tcp://10.0.0.5:29400")
        assert (rdv.host, rdv.port) == ("10.0.0.5", 29400)
        with pytest.raises(ConfigurationError, match="tcp://host:port"):
            parse_rendezvous("tcp://10.0.0.5")

    def test_unknown_scheme_is_loud(self):
        with pytest.raises(ConfigurationError, match="unknown rendezvous scheme"):
            parse_rendezvous("zk://ensemble/pool")


class TestWaitForCards:
    def test_returns_first_count_in_agent_id_order(self, tmp_path):
        rdv = FileRendezvous(tmp_path)
        for agent_id in ("ccc", "aaa", "bbb"):
            rdv.publish(_card(agent_id))
        cards = wait_for_cards(rdv, 2, timeout_s=1.0, clock=ManualClock())
        assert [c.agent_id for c in cards] == ["aaa", "bbb"]

    def test_exclude_filters_known_agents(self, tmp_path):
        rdv = FileRendezvous(tmp_path)
        rdv.publish(_card("old"))
        rdv.publish(_card("new"))
        cards = wait_for_cards(
            rdv, 1, timeout_s=1.0, clock=ManualClock(), exclude=("old",)
        )
        assert [c.agent_id for c in cards] == ["new"]

    def test_waits_until_late_publisher_shows_up(self, tmp_path):
        rdv = FileRendezvous(tmp_path)
        rdv.publish(_card("aaa"))
        clock = ManualClock()
        polls = []
        real_cards = rdv.cards

        def cards_with_late_join():
            polls.append(clock.now())
            if len(polls) == 3:  # shows up two poll slices in
                rdv.publish(_card("bbb"))
            return real_cards()

        rdv.cards = cards_with_late_join
        cards = wait_for_cards(rdv, 2, timeout_s=10.0, clock=clock)
        assert [c.agent_id for c in cards] == ["aaa", "bbb"]
        assert len(polls) == 3  # and never slept past the third poll

    def test_timeout_names_the_shortfall(self, tmp_path):
        rdv = FileRendezvous(tmp_path)
        rdv.publish(_card("aaa"))
        with pytest.raises(PoolError, match="1 of 4 agents"):
            wait_for_cards(rdv, 4, timeout_s=2.0, clock=ManualClock())
