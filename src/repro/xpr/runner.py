"""Pull-worker trial runner: drain a grid with timeouts, retries, isolation.

The runner turns a trial list into outcomes without ever letting one bad
trial kill the sweep:

- **pull workers** — N in-process threads drain a shared queue, so a
  slow trial never blocks the others behind a static partition;
- **crash isolation** — a trial that raises is recorded as a failed
  outcome (type + message), and the worker moves on to the next trial;
- **per-trial timeout** — each execution runs on a disposable daemon
  thread; if it has not finished within ``timeout_s`` the trial is
  recorded as ``"timeout"`` and abandoned (the stuck thread cannot hold
  the sweep hostage);
- **retry-once-on-infra-error** — transport/rank/socket failures
  (:data:`INFRA_ERRORS`) are environmental, not regressions, so the
  trial gets exactly one more attempt before it is recorded as failed.

All timing flows through an injected :class:`repro.util.clock.Clock`
(monotonic by default), so tests drive the runner with a
:class:`~repro.util.clock.ManualClock` and assert exact durations.
"""

from __future__ import annotations

import queue
import statistics
import threading
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Sequence

from repro.errors import RankFailure, ReproError, TransportError
from repro.util.clock import Clock, MonotonicClock
from repro.xpr.grid import TrialSpec
from repro.xpr.registry import BenchRegistry, TrialRunner, default_registry
from repro.xpr.store import (
    TrajectoryStore,
    TrialRecord,
    git_revision,
    wall_timestamp,
)

#: Exception types treated as infrastructure flakes (retried once).
INFRA_ERRORS = (TransportError, RankFailure, ConnectionError, OSError)


class TrialTimeoutError(ReproError):
    """A trial execution exceeded the runner's per-trial timeout."""


@dataclass
class TrialOutcome:
    """What happened to one trial: status, metrics, timing, attempts."""

    spec: TrialSpec
    status: str = "ok"  # "ok" | "error" | "timeout"
    metrics: Dict[str, float] = dataclass_field(default_factory=dict)
    times_s: List[float] = dataclass_field(default_factory=list)
    elapsed_s: float = 0.0
    attempts: int = 1
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when every repeat of the trial completed."""
        return self.status == "ok"


class Runner:
    """Drains trial specs through pull workers (see module docstring)."""

    def __init__(
        self,
        registry: Optional[BenchRegistry] = None,
        clock: Optional[Clock] = None,
        workers: int = 2,
        timeout_s: Optional[float] = None,
    ):
        if workers < 1:
            raise ReproError(f"need >= 1 worker, got {workers}")
        self.registry = registry or default_registry()
        self.clock = clock or MonotonicClock()
        self.workers = workers
        self.timeout_s = timeout_s

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialOutcome]:
        """Execute every spec; outcomes come back in input order."""
        todo: "queue.Queue" = queue.Queue()
        for item in enumerate(specs):
            todo.put(item)
        outcomes: List[Optional[TrialOutcome]] = [None] * len(specs)

        def worker() -> None:
            while True:
                try:
                    index, spec = todo.get_nowait()
                except queue.Empty:
                    return
                outcomes[index] = self.run_trial(spec)
                todo.task_done()

        threads = [
            threading.Thread(
                target=worker, name=f"xpr-worker-{i}", daemon=True
            )
            for i in range(min(self.workers, max(1, len(specs))))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [o for o in outcomes if o is not None]

    def run_trial(self, spec: TrialSpec) -> TrialOutcome:
        """One trial: repeats, timing, timeout, retry-once-on-infra-error."""
        fn = self.registry.get(spec.mode)
        last_error: Optional[BaseException] = None
        for attempt in (1, 2):
            try:
                metrics, times = self._attempt(fn, spec)
            except TrialTimeoutError as exc:
                return TrialOutcome(
                    spec=spec,
                    status="timeout",
                    attempts=attempt,
                    error=str(exc),
                )
            except INFRA_ERRORS as exc:
                last_error = exc
                continue  # one more attempt, then fall through to error
            except Exception as exc:
                return TrialOutcome(
                    spec=spec,
                    status="error",
                    attempts=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
            return TrialOutcome(
                spec=spec,
                status="ok",
                metrics=metrics,
                times_s=times,
                elapsed_s=statistics.median(times) if times else 0.0,
                attempts=attempt,
            )
        return TrialOutcome(
            spec=spec,
            status="error",
            attempts=2,
            error=f"{type(last_error).__name__}: {last_error}",
        )

    def _attempt(
        self, fn: TrialRunner, spec: TrialSpec
    ) -> tuple:
        """Run all repeats once; returns (median metrics, per-repeat times)."""
        per_repeat: List[Dict[str, float]] = []
        times: List[float] = []
        for _ in range(spec.repeats):
            t0 = self.clock.now()
            per_repeat.append(self._execute(fn, spec))
            times.append(self.clock.now() - t0)
        keys = sorted({k for m in per_repeat for k in m})
        metrics = {
            key: float(
                statistics.median([m[key] for m in per_repeat if key in m])
            )
            for key in keys
        }
        return metrics, times

    def _execute(
        self, fn: TrialRunner, spec: TrialSpec
    ) -> Dict[str, float]:
        """One execution of the entry point, timeout-guarded."""
        if self.timeout_s is None:
            return fn(spec)
        box: Dict[str, object] = {}

        def target() -> None:
            try:
                box["metrics"] = fn(spec)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                box["error"] = exc

        thread = threading.Thread(
            target=target, name=f"xpr-trial-{spec.trial_id}", daemon=True
        )
        thread.start()
        thread.join(self.timeout_s)
        if thread.is_alive():
            raise TrialTimeoutError(
                f"trial {spec.trial_id} ({spec.label()}) exceeded the "
                f"{self.timeout_s:g}s per-trial timeout"
            )
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["metrics"]  # type: ignore[return-value]


def record_outcomes(
    store: TrajectoryStore,
    outcomes: Sequence[TrialOutcome],
    *,
    git_rev: Optional[str] = None,
    ts: Optional[str] = None,
) -> List[TrialRecord]:
    """Append trial outcomes to the trajectory store; returns the records.

    Failed trials are recorded too (status + error, no metrics): a trial
    that silently vanishes from the trajectory would read as "never ran"
    instead of "broke", and the gate must see the difference.
    """
    git_rev = git_rev or git_revision()
    ts = ts if ts is not None else wall_timestamp()
    records = []
    for outcome in outcomes:
        metrics = dict(outcome.metrics)
        if outcome.ok:
            metrics["elapsed_s"] = outcome.elapsed_s
        records.append(
            TrialRecord(
                experiment=outcome.spec.experiment,
                trial_id=outcome.spec.trial_id,
                git_rev=git_rev,
                ts=ts,
                status=outcome.status,
                params=outcome.spec.params(),
                metrics=metrics,
                error=outcome.error,
            )
        )
    store.extend(records)
    return records
