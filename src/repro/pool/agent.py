"""The pool agent: a long-lived rank process found through a rendezvous.

One agent is one potential rank.  It is the shared rank machine
(:class:`~repro.dist.agent.RankAgent`: ``ping`` / ``form`` / ``mesh`` /
``job`` / ``shutdown``) plus what makes it a pool member: it starts
knowing only a rendezvous URL, publishes an
:class:`~repro.pool.rendezvous.AgentCard` advertising a control port,
and withdraws the card when told to shut down.

The agent survives controller disconnects: when a control connection
drops it simply re-accepts, keeping mesh, plans, kernel spectra and
process state warm for the next controller.  That is what makes
resubmission warm — nothing about the agent's life is scoped to one job
or one controller.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from multiprocessing.connection import Listener
from typing import Callable, List, Optional

from repro.dist.agent import RankAgent, serve_connection
from repro.dist.runtime import mp_context
from repro.errors import ReproError
from repro.pool.rendezvous import (
    AgentCard,
    Rendezvous,
    new_agent_id,
    parse_rendezvous,
)
from repro.util.clock import Clock

__all__ = ["PoolAgent", "agent_main", "spawn_local_agents", "start_detached_agents"]


class PoolAgent(RankAgent):
    """The rank machine plus its rendezvous card."""

    def __init__(
        self,
        rendezvous: Rendezvous,
        host: str = "127.0.0.1",
        clock: Optional[Clock] = None,
        abort: Optional[Callable[[], None]] = None,
    ):
        super().__init__(new_agent_id(), host=host, clock=clock, abort=abort)
        self.rendezvous = rendezvous

    def card(self, control_port: int) -> AgentCard:
        """This agent's rendezvous card for a given control port."""
        return AgentCard(
            agent_id=self.agent_id,
            host=self.host,
            port=int(control_port),
            pid=os.getpid(),
        )

    def withdraw(self) -> None:
        """Take the card off the rendezvous (unreachable rendezvous: the
        card stays, and ``pool down`` clears it as stale)."""
        try:
            self.rendezvous.withdraw(self.agent_id)
        except ReproError:
            pass

    def handle(self, message: tuple, send: Callable[[tuple], None]) -> bool:
        """The shared machine; ``shutdown`` also withdraws the card."""
        if message[0] == "shutdown":
            self.withdraw()
        return super().handle(message, send)


def agent_main(
    rendezvous_url: str,
    host: str = "127.0.0.1",
    clock: Optional[Clock] = None,
) -> int:
    """Run one agent until a controller sends ``shutdown``.

    Publishes the card, then serves control connections one at a time —
    each until EOF, then back to ``accept``.  A controller disconnect is
    therefore not a death sentence; the agent (and its warm mesh) waits
    for the next one.
    """
    agent = PoolAgent(parse_rendezvous(rendezvous_url), host=host, clock=clock)
    control = Listener((host, 0), family="AF_INET")
    agent.rendezvous.publish(agent.card(control.address[1]))
    alive = True
    try:
        while alive:
            try:
                conn = control.accept()
            except (OSError, EOFError):
                break
            try:
                alive = serve_connection(agent, conn)
            finally:
                conn.close()
    finally:
        agent.withdraw()
        agent.teardown_mesh()
        control.close()
    return 0


def spawn_local_agents(
    rendezvous_url: str,
    count: int,
    host: str = "127.0.0.1",
) -> List[multiprocessing.Process]:
    """Fork ``count`` agent processes joined to one rendezvous.

    The spawn path of tests, benchmarks and ``RankPool.spawn``: the
    agents are daemon children and end with the process that forked them
    (see :func:`start_detached_agents` for agents that must outlive it).
    """
    ctx = mp_context()
    procs = []
    for _ in range(count):
        proc = ctx.Process(
            target=agent_main, args=(rendezvous_url, host), daemon=True
        )
        proc.start()
        procs.append(proc)
    return procs


def start_detached_agents(
    rendezvous_url: str,
    count: int,
    host: str = "127.0.0.1",
) -> None:
    """Start ``count`` agent processes in their own sessions.

    Unlike :func:`spawn_local_agents` these outlive the starting process:
    ``pool up`` starts its agents here, and so does a controller that
    replaces a dead member of a pool it did not spawn, so the replacement
    stays for the next controller and ``pool down`` stops it.
    """
    for _ in range(count):
        subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "pool",
                "agent",
                "--rendezvous",
                rendezvous_url,
                "--host",
                host,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
