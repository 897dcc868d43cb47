"""Reusable deterministic fault schedules for chaos tests.

A :class:`FaultSchedule` is the test-side owner of *when* a rank dies:
it plugs into the :data:`~repro.serve.dist_backend.JobHook` seam of
:class:`~repro.serve.dist_backend.PoolBackend` and rewrites the chosen
job's :class:`~repro.dist.worker.DistConfig` with ``fail_rank`` /
``fail_stage`` — the same in-band injection the dist runtime's own
fault tests use, so the kill is exact (that rank calls ``os._exit`` at
that pipeline stage) and perfectly reproducible.

Triggers are deterministic two ways:

- **by job index** (``job_index=3`` kills during the third pool job the
  backend submits), independent of wall time; or
- **by clock time** (``at_s=1.5`` kills the first job submitted at or
  after that instant on the *injected* clock), which composes with
  :class:`~repro.util.clock.ManualClock` timelines.

Each :class:`KillAt` fires at most once; ``schedule.fired`` records
what actually triggered so tests can assert the fault really happened
(a chaos test that silently injects nothing proves nothing).
"""

from dataclasses import dataclass, replace as dataclass_replace
from typing import List, Optional

from repro.util.clock import Clock


@dataclass
class KillAt:
    """One scheduled rank death.

    Exactly one of ``job_index`` (1-based backend job counter) or
    ``at_s`` (injected-clock time) selects the victim job; ``rank`` and
    ``stage`` select where in that job the rank dies (stage must be a
    :data:`~repro.dist.worker.FAIL_STAGES` member).
    """

    rank: int
    stage: str = "before_checkpoint"
    job_index: Optional[int] = None
    at_s: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.job_index is None) == (self.at_s is None):
            raise ValueError("set exactly one of job_index or at_s")


class FaultSchedule:
    """Deterministic kill schedule, pluggable as a PoolBackend job hook.

    Usage::

        schedule = FaultSchedule([KillAt(rank=2, job_index=3)])
        backend = PoolBackend(pool, job_hook=schedule.job_hook)
        ...
        assert schedule.fired  # the kill actually triggered
    """

    def __init__(self, kills: List[KillAt], clock: Optional[Clock] = None):
        self.kills = list(kills)
        self.clock = clock
        #: (job_index, KillAt) pairs that actually injected a failure
        self.fired: List[tuple] = []
        self._pending = list(self.kills)

    def job_hook(self, job_index: int, config):
        """The :data:`~repro.serve.dist_backend.JobHook` entry point."""
        for kill in list(self._pending):
            if kill.job_index is not None:
                due = job_index == kill.job_index
            else:
                if self.clock is None:
                    raise ValueError("at_s kills need a FaultSchedule clock")
                due = self.clock.now() >= kill.at_s
            if not due:
                continue
            self._pending.remove(kill)
            self.fired.append((job_index, kill))
            return dataclass_replace(
                config, fail_rank=kill.rank, fail_stage=kill.stage
            )
        return config

    @classmethod
    def single(
        cls,
        job_index: int,
        rank: int = 1,
        stage: str = "before_checkpoint",
    ) -> "FaultSchedule":
        """The common case: kill ``rank`` during job ``job_index``."""
        return cls([KillAt(rank=rank, stage=stage, job_index=job_index)])
