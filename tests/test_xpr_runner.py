"""Runner semantics: pull workers, timeouts, retries, crash isolation.

Every test injects a private :class:`BenchRegistry` with scripted trial
behaviors (hang, crash, flake) — no real benchmarks run here, so the
file exercises exactly the orchestration contract: one bad trial never
takes the sweep down with it.
"""

import threading

import pytest

from repro.errors import ReproError, TransportError
from repro.util.clock import ManualClock
from repro.xpr.grid import TrialSpec
from repro.xpr.registry import BenchRegistry
from repro.xpr.runner import Runner, TrialOutcome, record_outcomes
from repro.xpr.store import TrajectoryStore


def spec(seed=0, repeats=1, **kwargs):
    return TrialSpec(
        experiment="t", mode="serial", n=32, k=8, seed=seed,
        repeats=repeats, **kwargs,
    )


def registry_with(fn):
    reg = BenchRegistry()
    reg.register("serial")(fn)
    return reg


class TestPullWorkers:
    def test_drains_queue_and_preserves_input_order(self):
        seen = []
        lock = threading.Lock()

        def run(s):
            with lock:
                seen.append(s.seed)
            return {"value": float(s.seed)}

        specs = [spec(seed=i) for i in range(8)]
        outcomes = Runner(registry_with(run), workers=3).run(specs)
        assert sorted(seen) == list(range(8))  # every trial ran once
        # outcomes come back in input order regardless of worker timing
        assert [o.spec.seed for o in outcomes] == list(range(8))
        assert all(o.ok for o in outcomes)

    def test_multiple_workers_actually_share_the_queue(self):
        threads = set()
        barrier = threading.Barrier(2, timeout=5)

        def run(s):
            threads.add(threading.current_thread().name)
            barrier.wait()  # both workers must be in-flight at once
            return {}

        Runner(registry_with(run), workers=2).run([spec(seed=i) for i in (0, 1)])
        assert len(threads) == 2

    def test_rejects_zero_workers(self):
        with pytest.raises(ReproError, match="worker"):
            Runner(BenchRegistry(), workers=0)


class TestCrashIsolation:
    def test_crashing_trial_is_recorded_not_raised(self):
        def run(s):
            if s.seed == 1:
                raise ValueError("scripted crash")
            return {"value": 1.0}

        outcomes = Runner(registry_with(run), workers=2).run(
            [spec(seed=i) for i in range(3)]
        )
        assert [o.status for o in outcomes] == ["ok", "error", "ok"]
        bad = outcomes[1]
        assert bad.error == "ValueError: scripted crash"
        assert bad.attempts == 1  # ValueError is not an infra flake

    def test_failed_trial_does_not_stop_later_trials(self):
        def run(s):
            if s.seed == 0:
                raise RuntimeError("first trial down")
            return {}

        outcomes = Runner(registry_with(run), workers=1).run(
            [spec(seed=i) for i in range(4)]
        )
        assert [o.ok for o in outcomes] == [False, True, True, True]


class TestTimeout:
    def test_hanging_trial_times_out_and_sweep_continues(self):
        release = threading.Event()

        def run(s):
            if s.seed == 1:
                release.wait()  # hang until the test releases it
            return {"value": 1.0}

        try:
            outcomes = Runner(
                registry_with(run), workers=1, timeout_s=0.2
            ).run([spec(seed=i) for i in range(3)])
        finally:
            release.set()
        assert [o.status for o in outcomes] == ["ok", "timeout", "ok"]
        assert "timeout" in (outcomes[1].error or "")
        assert outcomes[1].metrics == {}

    def test_timeout_is_not_retried(self):
        release = threading.Event()

        def run(s):
            release.wait()

        try:
            outcome = Runner(
                registry_with(run), timeout_s=0.1
            ).run_trial(spec())
        finally:
            release.set()
        assert outcome.status == "timeout"
        assert outcome.attempts == 1


class TestInfraRetry:
    def test_transport_error_retried_once_then_succeeds(self):
        calls = []

        def run(s):
            calls.append(1)
            if len(calls) == 1:
                raise TransportError("socket reset")
            return {"value": 7.0}

        outcome = Runner(registry_with(run)).run_trial(spec())
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.metrics["value"] == 7.0

    def test_persistent_infra_error_fails_after_two_attempts(self):
        calls = []

        def run(s):
            calls.append(1)
            raise ConnectionError("network is down")

        outcome = Runner(registry_with(run)).run_trial(spec())
        assert outcome.status == "error"
        assert outcome.attempts == 2
        assert len(calls) == 2
        assert outcome.error == "ConnectionError: network is down"

    def test_retry_restarts_all_repeats(self):
        # The flake lands mid-attempt; the retry must redo every repeat.
        calls = []

        def run(s):
            calls.append(1)
            if len(calls) == 2:
                raise TransportError("flake on second repeat")
            return {"value": float(len(calls))}

        outcome = Runner(registry_with(run)).run_trial(spec(repeats=2))
        assert outcome.ok
        assert outcome.attempts == 2
        assert len(calls) == 4  # 2 from attempt one + 2 from attempt two


class TestClockAndMetrics:
    def test_manual_clock_times_each_repeat(self):
        clock = ManualClock()

        def run(s):
            clock.advance(0.5)
            return {"value": 1.0}

        outcome = Runner(
            registry_with(run), clock=clock, workers=1
        ).run_trial(spec(repeats=3))
        assert outcome.times_s == [0.5, 0.5, 0.5]
        assert outcome.elapsed_s == 0.5

    def test_metrics_are_medianed_over_repeats(self):
        values = iter([1.0, 5.0, 2.0])

        def run(s):
            return {"value": next(values)}

        outcome = Runner(registry_with(run)).run_trial(spec(repeats=3))
        assert outcome.metrics == {"value": 2.0}


class TestRecordOutcomes:
    def test_failures_are_recorded_too(self, tmp_path):
        store = TrajectoryStore(tmp_path / "t.jsonl")
        ok = TrialOutcome(
            spec=spec(seed=0), metrics={"value": 1.0},
            times_s=[0.1], elapsed_s=0.1,
        )
        bad = TrialOutcome(
            spec=spec(seed=1), status="error", error="ValueError: boom",
        )
        records = record_outcomes(
            store, [ok, bad], git_rev="abc123", ts="2026-01-01T00:00:00+00:00"
        )
        assert len(records) == 2
        stored = store.records()
        assert stored[0].metrics == {"value": 1.0, "elapsed_s": 0.1}
        assert stored[0].git_rev == "abc123"
        assert stored[1].status == "error"
        assert stored[1].error == "ValueError: boom"
        assert stored[1].metrics == {}
