"""Deterministic scheduler/queue/admission tests — injected clock, no sleeps.

Covers the acceptance list: batch formation by compatibility key, max_wait
flush, queue-full rejection, deadline expiry, and retry-after-worker-
failure.  Every test drives a ManualClock explicitly; wall time never
enters the scheduling decisions.
"""

import numpy as np
import pytest

from repro.core.policy import SamplingPolicy
from repro.errors import AdmissionError, RequestTimeoutError, ServiceError
from repro.kernels.gaussian import GaussianKernel
from repro.serve import (
    BoundedRequestQueue,
    ConvolutionServer,
    RequestState,
    ServerConfig,
)
from repro.util.clock import ManualClock

N, K = 16, 4


@pytest.fixture
def spectrum():
    return GaussianKernel(n=N, sigma=1.5).spectrum()


def make_server(clock, fault_hook=None, **overrides):
    defaults = dict(
        n=N,
        k=K,
        max_queue=8,
        max_batch_size=4,
        max_wait_s=0.1,
        max_retries=1,
        retry_backoff_s=0.05,
        default_policy=SamplingPolicy.flat_rate(4),
    )
    defaults.update(overrides)
    return ConvolutionServer(
        ServerConfig(**defaults), clock=clock, fault_hook=fault_hook
    )


def submit_n(server, rng, count, **kwargs):
    return [
        server.submit(rng.standard_normal((N, N, N)), kernel="g", **kwargs)
        for _ in range(count)
    ]


class TestBatchFormation:
    def test_full_batch_flushes_immediately_by_size(self, rng, spectrum):
        clock = ManualClock()
        server = make_server(clock)
        server.register_kernel("g", spectrum)
        handles = submit_n(server, rng, 4)
        assert all(h.state is RequestState.QUEUED for h in handles)
        server.pump()  # no clock advance needed: size trigger
        assert all(h.state is RequestState.DONE for h in handles)
        snap = server.snapshot()
        assert snap["counters"]["batches_formed.size"] == 1
        assert snap["counters"].get("batches_formed.age", 0) == 0

    def test_partial_batch_waits_for_max_wait(self, rng, spectrum):
        clock = ManualClock()
        server = make_server(clock)
        server.register_kernel("g", spectrum)
        handles = submit_n(server, rng, 2)
        server.pump()
        assert all(h.state is RequestState.QUEUED for h in handles)
        clock.advance(0.099)
        server.pump()
        assert all(h.state is RequestState.QUEUED for h in handles)
        clock.advance(0.001)
        server.pump()  # age trigger fires exactly at max_wait
        assert all(h.state is RequestState.DONE for h in handles)
        assert server.snapshot()["counters"]["batches_formed.age"] == 1

    def test_incompatible_requests_form_separate_batches(self, rng, spectrum):
        clock = ManualClock()
        server = make_server(clock)
        server.register_kernel("g", spectrum)
        server.register_kernel("g2", spectrum * 0.5)
        a = submit_n(server, rng, 2, policy=SamplingPolicy.flat_rate(4))
        b = submit_n(server, rng, 2, policy=SamplingPolicy.flat_rate(2))
        c = [server.submit(rng.standard_normal((N, N, N)), kernel="g2")]
        clock.advance(0.1)
        server.pump()
        assert all(
            h.state is RequestState.DONE for h in a + b + c
        )
        # three compatibility groups -> three batches, never mixed
        assert server.snapshot()["counters"]["batches_executed"] == 3

    def test_batches_cap_at_max_batch_size(self, rng, spectrum):
        clock = ManualClock()
        server = make_server(clock)
        server.register_kernel("g", spectrum)
        handles = submit_n(server, rng, 7)
        clock.advance(0.1)
        server.pump()
        assert all(h.state is RequestState.DONE for h in handles)
        sizes = server.snapshot()["histograms"]["batch.size"]
        assert sizes["count"] == 2 and sizes["max"] == 4.0


class TestAdmissionControl:
    def test_queue_full_rejects_without_raising(self, rng, spectrum):
        clock = ManualClock()
        server = make_server(clock, max_queue=3)
        server.register_kernel("g", spectrum)
        accepted = submit_n(server, rng, 3)
        rejected = server.submit(rng.standard_normal((N, N, N)), kernel="g")
        assert all(h.state is RequestState.QUEUED for h in accepted)
        assert rejected.state is RequestState.REJECTED
        with pytest.raises(AdmissionError, match="queue full"):
            rejected.result()
        assert server.snapshot()["counters"]["requests_rejected"] == 1
        # accepted work still completes
        clock.advance(0.1)
        server.pump()
        assert all(h.state is RequestState.DONE for h in accepted)

    def test_unknown_kernel_rejected(self, rng, spectrum):
        server = make_server(ManualClock())
        handle = server.submit(rng.standard_normal((N, N, N)), kernel="nope")
        assert handle.state is RequestState.REJECTED
        with pytest.raises(AdmissionError, match="unknown kernel"):
            handle.result()

    def test_bad_shape_rejected(self, rng, spectrum):
        server = make_server(ManualClock())
        server.register_kernel("g", spectrum)
        handle = server.submit(np.zeros((N, N, N - 1)), kernel="g")
        assert handle.state is RequestState.REJECTED
        with pytest.raises(AdmissionError, match="shape"):
            handle.result()


class TestDeadlines:
    def test_deadline_expiry_in_queue(self, rng, spectrum):
        clock = ManualClock()
        server = make_server(clock, max_wait_s=1.0)
        server.register_kernel("g", spectrum)
        doomed = submit_n(server, rng, 1, timeout_s=0.2)[0]
        patient = submit_n(server, rng, 1)[0]
        clock.advance(0.3)
        server.pump()
        assert doomed.state is RequestState.TIMED_OUT
        with pytest.raises(RequestTimeoutError, match="deadline expired"):
            doomed.result()
        assert server.snapshot()["counters"]["requests_timed_out"] == 1
        # the survivor still flushes by age later
        clock.advance(0.7)
        server.pump()
        assert patient.state is RequestState.DONE

    def test_default_timeout_applies(self, rng, spectrum):
        clock = ManualClock()
        server = make_server(clock, max_wait_s=1.0, default_timeout_s=0.1)
        server.register_kernel("g", spectrum)
        handle = submit_n(server, rng, 1)[0]
        clock.advance(0.11)
        server.pump()
        assert handle.state is RequestState.TIMED_OUT


class TestRetry:
    def test_retry_after_worker_failure_succeeds(self, rng, spectrum):
        clock = ManualClock()
        failures = []

        def flaky(batch, attempt):
            if attempt == 1:
                failures.append(attempt)
                raise RuntimeError("injected worker crash")

        server = make_server(clock, fault_hook=flaky)
        server.register_kernel("g", spectrum)
        handles = submit_n(server, rng, 4)
        server.pump()  # first attempt fails, batch re-queued with backoff
        assert failures == [1]
        assert all(h.state is RequestState.QUEUED for h in handles)
        server.pump()  # backoff (0.05s) not yet elapsed: nothing runs
        assert all(h.state is RequestState.QUEUED for h in handles)
        clock.advance(0.05)
        server.pump()
        assert all(h.state is RequestState.DONE for h in handles)
        counters = server.snapshot()["counters"]
        assert counters["requests_retried"] == 4
        assert counters["requests_completed"] == 4

    def test_retries_exhausted_fails_request(self, rng, spectrum):
        clock = ManualClock()

        def always_fail(batch, attempt):
            raise RuntimeError("injected permanent failure")

        server = make_server(clock, fault_hook=always_fail, max_retries=2)
        server.register_kernel("g", spectrum)
        handle = submit_n(server, rng, 1)[0]
        clock.advance(0.1)
        server.pump()  # attempt 1 fails -> backoff 0.05
        clock.advance(0.05)
        server.pump()  # attempt 2 fails -> backoff 0.1
        clock.advance(0.1)
        server.pump()  # attempt 3 fails -> retries exhausted
        assert handle.state is RequestState.FAILED
        with pytest.raises(ServiceError, match="after 3 attempts"):
            handle.result()
        assert server.snapshot()["counters"]["requests_failed"] == 1

    def test_drain_simulates_backoff_on_manual_clock(self, rng, spectrum):
        clock = ManualClock()

        def flaky(batch, attempt):
            if attempt == 1:
                raise RuntimeError("injected worker crash")

        server = make_server(clock, fault_hook=flaky)
        server.register_kernel("g", spectrum)
        handles = submit_n(server, rng, 2)
        server.drain()  # advances through max_wait and the retry backoff
        assert all(h.state is RequestState.DONE for h in handles)


class TestBoundedRequestQueueUnit:
    def _request(self, clock, rid=1, not_before=0.0):
        from repro.serve.request import ConvolutionRequest, RequestHandle

        return ConvolutionRequest(
            request_id=rid,
            field=np.zeros((N, N, N)),
            n=N,
            k=K,
            kernel="g",
            policy=SamplingPolicy.flat_rate(4),
            batch=None,
            submitted_at=clock.now(),
            deadline=None,
            handle=RequestHandle(rid),
            queued_at=clock.now(),
            not_before=not_before,
        )

    def test_capacity_enforced(self):
        clock = ManualClock()
        queue = BoundedRequestQueue(2)
        queue.push(self._request(clock, 1))
        queue.push(self._request(clock, 2))
        with pytest.raises(AdmissionError):
            queue.push(self._request(clock, 3))
        # retries bypass the capacity check (they already held a slot)
        queue.push(self._request(clock, 4), front=True)
        assert len(queue) == 3

    def test_pop_batch_stops_at_backing_off_front(self):
        clock = ManualClock()
        queue = BoundedRequestQueue(8)
        r1 = self._request(clock, 1, not_before=1.0)
        r2 = self._request(clock, 2)
        queue.push(r1)
        queue.push(r2)
        key = r1.compat_key
        assert queue.pop_batch(key, 4, now=0.0) == []  # front parks the group
        assert [r.request_id for r in queue.pop_batch(key, 4, now=1.0)] == [1, 2]
        assert len(queue) == 0
