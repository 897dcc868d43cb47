"""Batch execution: drive :class:`~repro.core.batch.BatchConvolver` engines.

The executor owns one warm engine per compatibility key (an LRU-bounded
cache): every batch for a key reuses that engine's pattern cache and
pruned-FFT plans, which is the entire throughput case for batched serving
— congruent requests stop paying the per-request fixed costs a naive
one-request-at-a-time service rebuilds every time.

Engines run on the existing execution paths — ``mode="serial"`` (one
core, Hermitian fast path auto-detected) or ``mode="parallel"``
(process-pool sub-domain fan-out) — and both are reorderings, so results
are bitwise identical to a direct
:meth:`~repro.core.pipeline.LowCommConvolution3D.run_serial` on the same
input.

Failure handling lives one level up (the server retries whole batches
with backoff); the executor's job on failure is only to leave handles
untouched and report the error.  ``fault_hook`` is the deterministic
failure-injection point the retry tests use.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.batch import BatchConvolver
from repro.core.pipeline import ConvolutionResult
from repro.errors import ConfigurationError
from repro.serve.request import CompatKey, RequestState
from repro.serve.scheduler import Batch
from repro.util.clock import Clock
from repro.util.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry

#: Test seam: called as ``fault_hook(batch, attempt)`` before execution;
#: raising simulates a worker failure for that attempt.
FaultHook = Callable[[Batch, int], None]


class BatchExecutor:
    """Run scheduled batches on cached per-key convolution engines."""

    def __init__(
        self,
        kernels: Dict[str, np.ndarray],
        clock: Clock,
        metrics: MetricsRegistry,
        mode: str = "serial",
        max_workers: Optional[int] = None,
        max_engines: int = 8,
        interpolation: str = "linear",
        fault_hook: Optional[FaultHook] = None,
    ):
        if mode not in ("serial", "parallel"):
            raise ConfigurationError(
                f"executor mode must be 'serial' or 'parallel', got {mode!r}"
            )
        self._kernels = kernels
        self._clock = clock
        self._metrics = metrics
        self.mode = mode
        self.max_workers = max_workers
        self.max_engines = max_engines
        self.interpolation = interpolation
        self.fault_hook = fault_hook
        self._engines: "OrderedDict[CompatKey, BatchConvolver]" = OrderedDict()

    # -- engine cache --------------------------------------------------------
    def engine_for(self, key: CompatKey) -> BatchConvolver:
        """The warm engine for ``key`` (built on first use, LRU-evicted)."""
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            return engine
        n, k, kernel_name, policy, real_kernel, batch = key
        spectrum = self._kernels.get(kernel_name)
        if spectrum is None:
            raise ConfigurationError(
                f"kernel {kernel_name!r} is not registered with the server"
            )
        engine = BatchConvolver(
            n, k, spectrum, policy, batch=batch, real_kernel=real_kernel
        )
        engine.pipeline.interpolation = self.interpolation
        while len(self._engines) >= self.max_engines:
            self._engines.popitem(last=False)
        self._engines[key] = engine
        return engine

    # -- execution -----------------------------------------------------------
    def execute(self, batch: Batch) -> Tuple[List[ConvolutionResult], float]:
        """Run one batch; resolve every request handle on success.

        Returns the per-request results and the batch execution time.  On
        any exception the handles are left unresolved (still RUNNING) and
        the exception propagates — the server decides between retry and
        FAILED.
        """
        now = self._clock.now()
        for request in batch.requests:
            request.attempts += 1
            request.run_started_at = now
            request.handle._set_state(RequestState.RUNNING)
            self._metrics.observe("stage.queue_wait_s", now - request.queued_at)
        if self.fault_hook is not None:
            self.fault_hook(batch, batch.requests[0].attempts)
        engine = self.engine_for(batch.key)
        t0 = self._clock.now()
        result = engine.run(
            [r.field for r in batch.requests],
            mode=self.mode,
            max_workers=self.max_workers,
        )
        elapsed = self._clock.now() - t0
        self._metrics.observe("stage.execute_s", elapsed)
        self._metrics.observe(
            "batch.size", len(batch.requests), buckets=DEFAULT_SIZE_BUCKETS
        )
        self._metrics.counter("batches_executed").inc()
        done = self._clock.now()
        for request, conv_result in zip(batch.requests, result.results):
            if request.handle._finish(RequestState.DONE, result=conv_result):
                self._metrics.counter("requests_completed").inc()
                self._metrics.observe(
                    "latency.e2e_s", done - request.submitted_at
                )
                self._metrics.observe(
                    f"tenant.{request.tenant}.latency.e2e_s",
                    done - request.submitted_at,
                )
        return result.results, elapsed

    @property
    def engine_count(self) -> int:
        """Number of warm engines currently cached."""
        return len(self._engines)
