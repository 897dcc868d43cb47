"""`ConvolutionServer` — the serving layer's front door.

Ties the pieces together: admission-controlled bounded queue
(:mod:`repro.serve.queue`), dynamic batching scheduler
(:mod:`repro.serve.scheduler`), an executor that turns a batch into
results (:mod:`repro.serve.executor` in process, whose per-kernel engines
share the process's pattern and FFT plan tables;
:mod:`repro.serve.dist_backend` on a rank pool), and the metrics
registry — all reading time through an injectable clock, so the whole
lifecycle is testable without wall-clock sleeps.  Request bookkeeping
(states, attempts, the serving metrics) is done here, once, whichever
executor runs the batch.

Usage::

    server = ConvolutionServer(ServerConfig(n=64, k=16))
    server.register_kernel("gauss", GaussianKernel(n=64, sigma=2.0).spectrum())
    handle = server.submit(field, kernel="gauss")
    server.drain()                    # or server.start() for a background loop
    result = handle.result()          # ConvolutionResult, bitwise == run_serial

The server is *pull-driven*: :meth:`pump` performs one scheduling
iteration (expire deadlines, form due batches, execute, retry failures)
and :meth:`drain` pumps until idle, advancing the clock to the scheduler's
next decision point between iterations.  :meth:`start` runs the same loop
on a daemon thread for real concurrent callers.

Retries: a batch that raises is retried whole, with exponential backoff
(``retry_backoff_s * 2**(attempt-1)``), until a request has consumed
``max_retries`` retries — then its handle fails with
:class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Optional

import numpy as np

from repro.core.policy import SamplingPolicy
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    RequestTimeoutError,
    ServiceError,
    ShapeError,
)
from repro.kernels.properties import check_hermitian_real
from repro.serve.executor import BatchExecutor, FaultHook
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import ConvolutionRequest, RequestHandle, RequestState
from repro.serve.scheduler import Batch, BatchingScheduler
from repro.util.clock import Clock, MonotonicClock
from repro.util.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from repro.util.validation import check_positive_int


@dataclass
class ServerConfig:
    """All the serving-layer knobs in one place.

    The in-process executor runs each request as one ``run_serial`` on
    one core; serving on many cores is a
    :class:`~repro.serve.dist_backend.PoolBackend` passed as the server's
    ``executor``, not a setting here.

    Attributes
    ----------
    n, k:
        Grid and sub-domain edge every request must match.
    max_queue:
        Admission bound: waiting requests beyond this are rejected.
    max_batch_size:
        Batch ships as soon as this many compatible requests are eligible.
    max_wait_s:
        Age trigger: a partial batch ships once its oldest request has
        waited this long (the latency/throughput dial).
    default_timeout_s:
        Deadline applied to requests submitted without an explicit one
        (None = no deadline).
    max_retries:
        Worker-failure retries per request before FAILED.
    retry_backoff_s:
        Base of the exponential retry backoff.
    batch:
        Pencil batch ``B`` forwarded to the convolution pipeline; ``None``
        sizes it from ``(n, components)`` by
        :func:`~repro.fft.pruned.default_pencil_batch`, as ``run_serial``
        and pool ranks do.
    default_policy:
        Sampling policy for requests that do not pass one.
    """

    n: int = 64
    k: int = 16
    max_queue: int = 64
    max_batch_size: int = 8
    max_wait_s: float = 0.05
    default_timeout_s: Optional[float] = None
    max_retries: int = 1
    retry_backoff_s: float = 0.01
    batch: Optional[int] = None
    default_policy: SamplingPolicy = dataclass_field(default_factory=SamplingPolicy)


class ConvolutionServer:
    """Batching convolution service over the low-communication pipeline."""

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        clock: Optional[Clock] = None,
        metrics: Optional[MetricsRegistry] = None,
        fault_hook: Optional[FaultHook] = None,
        executor: Optional[object] = None,
    ):
        self.config = config or ServerConfig()
        if self.config.n % self.config.k:
            raise ConfigurationError(
                f"sub-domain size k={self.config.k} must divide n={self.config.n}"
            )
        if self.config.batch is not None:
            check_positive_int(self.config.batch, "batch")
        self.clock = clock or MonotonicClock()
        self.metrics = metrics or MetricsRegistry()
        self._kernels: Dict[str, np.ndarray] = {}
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self.queue = BoundedRequestQueue(self.config.max_queue)
        self.scheduler = BatchingScheduler(
            self.queue, self.config.max_batch_size, self.config.max_wait_s
        )
        if executor is not None:
            # Backend seam: anything with the BatchExecutor protocol
            # (execute/engine_count, optionally bind/describe) —
            # e.g. :class:`~repro.serve.dist_backend.PoolBackend`.
            bind = getattr(executor, "bind", None)
            if bind is not None:
                bind(self._kernels, self.clock, self.metrics)
            self.executor = executor
        else:
            self.executor = BatchExecutor(
                self._kernels, self.clock, fault_hook=fault_hook
            )
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._shutdown_done = False
        # Serializes scheduling iterations: pump() may be called from the
        # background serve loop and from caller threads simultaneously, but
        # engines (and their pad buffers) must see one batch at a time.
        self._pump_lock = threading.Lock()

    # -- configuration -------------------------------------------------------
    def register_kernel(self, name: str, spectrum: np.ndarray) -> None:
        """Register a dense kernel spectrum requests can refer to by name.

        The spectrum must be real and centrosymmetric (paper §3.1): one
        that is not raises :class:`~repro.errors.ConfigurationError` here,
        not in every request that names it.  The server keeps a private
        read-only copy, so a later write to the caller's array changes no
        served result and skips no check.
        """
        spectrum = np.array(spectrum)
        spectrum.flags.writeable = False
        if spectrum.shape != (self.config.n,) * 3:
            raise ShapeError(
                f"kernel {name!r} spectrum shape {spectrum.shape} != "
                f"({self.config.n},)*3"
            )
        check_hermitian_real(spectrum, f"kernel {name!r}")
        with self._lock:
            self._kernels[name] = spectrum

    # -- front door ----------------------------------------------------------
    def submit(
        self,
        field: np.ndarray,
        kernel: str,
        policy: Optional[SamplingPolicy] = None,
        timeout_s: Optional[float] = None,
    ) -> RequestHandle:
        """Submit one convolution; returns immediately with a handle.

        Admission control never raises from here: a rejected request's
        handle is already terminal in state REJECTED and ``result()``
        raises the stored :class:`~repro.errors.AdmissionError`.
        """
        cfg = self.config
        now = self.clock.now()
        handle = RequestHandle(next(self._ids))
        self.metrics.counter("requests_submitted").inc()
        field = np.asarray(field, dtype=np.float64)
        timeout_s = timeout_s if timeout_s is not None else cfg.default_timeout_s
        request = ConvolutionRequest(
            request_id=handle.request_id,
            field=field,
            n=cfg.n,
            k=cfg.k,
            kernel=kernel,
            policy=policy or cfg.default_policy,
            batch=cfg.batch,
            submitted_at=now,
            deadline=(now + timeout_s) if timeout_s is not None else None,
            handle=handle,
            queued_at=now,
        )
        try:
            if self._shutdown_done:
                raise AdmissionError(
                    "server is shut down", request_id=handle.request_id
                )
            if field.shape != (cfg.n,) * 3:
                raise AdmissionError(
                    f"field shape {field.shape} != grid ({cfg.n},)*3",
                    request_id=handle.request_id,
                )
            if kernel not in self._kernels:
                raise AdmissionError(
                    f"unknown kernel {kernel!r}; register_kernel() it first",
                    request_id=handle.request_id,
                )
            with self._lock:
                self.queue.push(request)
                self.metrics.gauge("queue_depth").set(len(self.queue))
        except AdmissionError as exc:
            handle._finish(RequestState.REJECTED, error=exc)
            self.metrics.counter("requests_rejected").inc()
            return handle
        handle._set_state(RequestState.QUEUED)
        return handle

    # -- scheduling loop -----------------------------------------------------
    def pump(self, now: Optional[float] = None) -> int:
        """One scheduling iteration; returns how many requests progressed.

        Progress = expired + started.  Deterministic: with an injected
        manual clock, identical submission/advance sequences produce
        identical batching decisions.
        """
        if now is None:
            now = self.clock.now()
        with self._pump_lock:
            return self._pump_locked(now)

    def _pump_locked(self, now: float) -> int:
        progressed = 0
        with self._lock:
            for request in self.queue.remove_expired(now):
                if request.handle._finish(
                    RequestState.TIMED_OUT,
                    error=RequestTimeoutError(
                        f"request {request.request_id} deadline expired after "
                        f"{now - request.submitted_at:.3f}s in queue",
                        request_id=request.request_id,
                    ),
                ):
                    self.metrics.counter("requests_timed_out").inc()
                    progressed += 1
            batches = self.scheduler.due_batches(now)
            self.metrics.gauge("queue_depth").set(len(self.queue))
        for batch in batches:
            self.metrics.counter("batches_formed").inc()
            self.metrics.counter(f"batches_formed.{batch.reason}").inc()
            progressed += len(batch.requests)
            self._run_batch(batch)
        return progressed

    def _run_batch(self, batch: Batch) -> None:
        """Execute one batch and do its requests' bookkeeping.

        On success every handle resolves DONE; on a worker failure the
        handles stay RUNNING for :meth:`_on_batch_failure` to re-queue
        or fail.
        """
        now = self.clock.now()
        for request in batch.requests:
            request.attempts += 1
            request.handle._set_state(RequestState.RUNNING)
            self.metrics.observe("stage.queue_wait_s", now - request.queued_at)
        try:
            results, elapsed = self.executor.execute(batch)
        except ServiceError:
            raise  # programming/config errors should surface, not retry
        except Exception as exc:  # worker failure: retry with backoff
            self._on_batch_failure(batch, exc)
            return
        self.metrics.observe("stage.execute_s", elapsed)
        self.metrics.observe(
            "batch.size", len(batch.requests), buckets=DEFAULT_SIZE_BUCKETS
        )
        self.metrics.counter("batches_executed").inc()
        done = self.clock.now()
        for request, result in zip(batch.requests, results):
            if request.handle._finish(RequestState.DONE, result=result):
                self.metrics.counter("requests_completed").inc()
                self.metrics.observe("latency.e2e_s", done - request.submitted_at)

    def _on_batch_failure(self, batch: Batch, exc: Exception) -> None:
        cfg = self.config
        now = self.clock.now()
        with self._lock:
            for request in batch.requests:
                if request.attempts > cfg.max_retries:
                    if request.handle._finish(
                        RequestState.FAILED,
                        error=ServiceError(
                            f"request {request.request_id} failed after "
                            f"{request.attempts} attempts: {exc}",
                            request_id=request.request_id,
                        ),
                    ):
                        self.metrics.counter("requests_failed").inc()
                    continue
                backoff = cfg.retry_backoff_s * (2 ** (request.attempts - 1))
                # queued_at is deliberately NOT reset: the request already
                # served its batching wait, so it re-runs (age trigger) as
                # soon as the backoff expires instead of waiting max_wait
                # again.
                request.not_before = now + backoff
                request.handle._set_state(RequestState.QUEUED)
                self.queue.push(request, front=True)
                self.metrics.counter("requests_retried").inc()
            self.metrics.gauge("queue_depth").set(len(self.queue))

    def drain(self, max_wall_s: Optional[float] = None) -> None:
        """Pump until no request is waiting (test/benchmark driver).

        Advances the clock to the scheduler's next decision point between
        iterations — under a :class:`~repro.util.clock.ManualClock` this
        simulates the timeline instantly; under the monotonic clock it
        sleeps just long enough.  ``max_wall_s`` bounds the loop for
        safety (measured on the server clock).
        """
        start = self.clock.now()
        while True:
            self.pump()
            with self._lock:
                waiting = len(self.queue)
            if not waiting:
                return
            now = self.clock.now()
            if max_wall_s is not None and now - start > max_wall_s:
                raise ServiceError(
                    f"drain exceeded {max_wall_s}s with {waiting} requests waiting"
                )
            with self._lock:
                next_event = self.scheduler.next_event_time(now)
            if next_event is None:
                return  # nothing can ever become due (defensive)
            # The epsilon absorbs float rounding in `queued_at + max_wait`;
            # minimum sleep keeps a real clock from busy-spinning.
            self.clock.sleep(max(next_event - now, 1e-4) + 1e-9)

    # -- background serving --------------------------------------------------
    def start(self) -> None:
        """Serve from a daemon thread until :meth:`stop` (production mode)."""
        with self._lock:
            if self._thread is not None:
                raise ConfigurationError("server already started")
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._serve_loop, name="repro-serve", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the background loop (waits up to ``timeout`` for it)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout)
        self._thread = None

    def shutdown(self, drain: bool = True, timeout_s: float = 10.0) -> dict:
        """Orderly shutdown; idempotent (the second call is a no-op).

        Stops the background loop, then either drains every in-flight
        request (``drain=True`` — pool jobs included, nothing is
        abandoned mid-mesh) or cancels the waiting ones with a recorded
        FAILED outcome so no caller blocks forever.  New submissions are
        rejected afterwards.  Returns a summary dict
        ``{"drained": n, "cancelled": n, "already_shut_down": bool}``.
        """
        with self._lock:
            if self._shutdown_done:
                return {"drained": 0, "cancelled": 0, "already_shut_down": True}
        self.stop(timeout=timeout_s)
        drained = cancelled = 0
        if drain:
            with self._lock:
                drained = len(self.queue)
            self.drain(max_wall_s=timeout_s)
        else:
            with self._lock:
                waiting = self.queue.drain_all()
            for request in waiting:
                if request.handle._finish(
                    RequestState.FAILED,
                    error=ServiceError(
                        f"request {request.request_id} cancelled by shutdown",
                        request_id=request.request_id,
                    ),
                ):
                    cancelled += 1
                    self.metrics.counter("requests_cancelled").inc()
        with self._lock:
            self._shutdown_done = True
            self.metrics.gauge("queue_depth").set(len(self.queue))
        return {
            "drained": drained,
            "cancelled": cancelled,
            "already_shut_down": False,
        }

    def _serve_loop(self) -> None:
        while not self._stop.is_set():
            self.pump()
            now = self.clock.now()
            with self._lock:
                next_event = self.scheduler.next_event_time(now)
            delay = 0.005 if next_event is None else min(
                max(next_event - now, 0.0005), 0.05
            )
            self._stop.wait(delay)

    # -- introspection -------------------------------------------------------
    def snapshot(self) -> dict:
        """Metrics snapshot plus live queue/engine state."""
        self.metrics.gauge("queue_depth").set(len(self.queue))
        self.metrics.histogram("batch.size", DEFAULT_SIZE_BUCKETS)
        snap = self.metrics.snapshot()
        snap["server"] = {
            "queue_depth": len(self.queue),
            "warm_engines": self.executor.engine_count,
            "kernels": sorted(self._kernels),
            "max_batch_size": self.config.max_batch_size,
            "max_wait_s": self.config.max_wait_s,
            "max_queue": self.config.max_queue,
            "shut_down": self._shutdown_done,
        }
        describe = getattr(self.executor, "describe", None)
        if describe is not None:
            snap["backend"] = describe()
        return snap
