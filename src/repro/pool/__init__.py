"""Standing rank pool with rendezvous bootstrap.

:mod:`repro.dist` launches ranks, runs one job, and tears everything
down — every run pays process spawn, mesh formation, and FFT plan
construction.  This package keeps all of that **warm**: rank agents are
long-lived processes that discover each other through a pluggable
rendezvous, form the same :class:`~repro.dist.TcpTransport` mesh once,
and then execute a *stream* of ``dist_run``-shaped jobs on it — plans
and transports persist across jobs while the wire/copy ledgers stay
exact per job.

Layers:

- :mod:`repro.pool.rendezvous` — agent discovery: ``file://`` shared
  directory or ``tcp://`` coordinator, one :class:`AgentCard` per agent.
- :mod:`repro.pool.membership` — the generation-numbered
  :class:`Roster`: replacement seating and stale-generation fencing.
- :mod:`repro.pool.agent` — the long-lived rank agent process: the
  shared rank machine (:class:`~repro.dist.agent.RankAgent`, which runs
  :func:`~repro.dist.jobs.execute_job` — per-job ledger deltas, warm
  plans, resumed jobs) behind a rendezvous card.
- :mod:`repro.pool.pool` — :class:`RankPool`: the controller
  (``spawn``/``connect``/``submit``/``down``) over the shared
  job driver (:mod:`repro.dist.runtime`), with in-mesh replacement and
  recovery jobs, and :func:`private_pool`, a throwaway pool that cleans
  up after itself.
- :mod:`repro.pool.cli` — ``python -m repro pool up|status|submit|down``.

Everything is bitwise identical to ``run_serial`` — clean jobs and
mid-job rank death with checkpoint handoff alike.
"""

from repro.dist.jobs import PoolJob, execute_job
from repro.pool.agent import PoolAgent, agent_main, spawn_local_agents
from repro.pool.membership import Member, Roster
from repro.pool.pool import PoolJobReport, RankPool, private_pool
from repro.pool.rendezvous import (
    AgentCard,
    CoordinatorServer,
    FileRendezvous,
    Rendezvous,
    TcpRendezvous,
    new_agent_id,
    parse_rendezvous,
    wait_for_cards,
)

__all__ = [
    "AgentCard",
    "CoordinatorServer",
    "FileRendezvous",
    "Member",
    "PoolAgent",
    "PoolJob",
    "PoolJobReport",
    "RankPool",
    "Rendezvous",
    "Roster",
    "TcpRendezvous",
    "agent_main",
    "execute_job",
    "new_agent_id",
    "parse_rendezvous",
    "private_pool",
    "spawn_local_agents",
    "wait_for_cards",
]
