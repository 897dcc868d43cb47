"""Dist-backed serving: run batches on one standing rank pool.

:class:`PoolBackend` is a drop-in executor for
:class:`~repro.serve.server.ConvolutionServer` (the ``executor=`` seam)
that runs each request as a ``dist_run``-shaped job on a warm, connected
:class:`~repro.pool.RankPool` mesh instead of an in-process
:class:`~repro.core.pipeline.LowCommConvolution3D`.  One serving front door then
spans hosts: admission control, batching, retries and request
bookkeeping stay in the server exactly as they are, while execution
lands on long-lived agent processes whose plan tables and transports
persist across requests.

**Fencing.**  Every submission carries the backend's last-observed
roster generation (``expected_generation``); if the pool membership
changed underneath, the pool raises
:class:`~repro.errors.StaleGenerationError` instead of silently running
on an unobserved roster, and the backend refreshes its view and
resubmits once (counted in ``pool.generation_bumps``).

**Wire bytes.**  Each job's exact per-job wire counters
(:attr:`~repro.pool.pool.PoolJobReport.wire_totals`) add up in one
``pool.wire_bytes`` counter of the server's metrics registry, and the
job messages the driver sent its ranks (``control_in_bytes``: the
blocks, and a kernel only for a rank that lacked it) in
``pool.control_bytes``.

Failover is the pool's re-run, reused transparently: a rank death
mid-job seats a replacement agent and runs the job again on the
repaired mesh, and the request completes normally — bitwise identical
to the single-process path — with the evidence surfaced as
``pool.recoveries`` / ``pool.replacements`` counters and
``replaced_ranks`` on the report.

Bitwise identity: the pool path is a reordering of
:meth:`~repro.core.pipeline.LowCommConvolution3D.run_serial`, which the
local executor calls directly, so a pool-backed server returns
bit-identical results to a local one.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.core.pipeline import ConvolutionResult
from repro.core.policy import policy_spec
from repro.errors import ConfigurationError, StaleGenerationError
from repro.serve.scheduler import Batch

if TYPE_CHECKING:  # dist/pool imports stay function-local to hold import
    # cost: ``import repro.serve`` pulls this module in, and loading the
    # pool there would cost every in-process server a few hundredths of a
    # second of imports it never uses
    from repro.dist.worker import DistConfig
    from repro.pool.pool import PoolJobReport, RankPool

#: Chaos/test seam: called as ``job_hook(job_index, config)`` before each
#: pool submission; the returned config is submitted (inject
#: ``fail_rank``/``fail_stage`` to kill a rank at a chosen job).
JobHook = Callable[[int, "DistConfig"], "DistConfig"]


class PoolBackend:
    """Executor that runs server batches as jobs on one standing rank pool.

    Implements the :class:`~repro.serve.executor.BatchExecutor` protocol
    (``execute`` / ``engine_count``) plus the optional server-seam hooks
    (``bind`` / ``describe``), so
    ``ConvolutionServer(config, executor=PoolBackend(pool))`` swaps the
    execution substrate without touching admission, batching, retry or
    request bookkeeping.

    Each request in a batch becomes one pool job (the pool's job shape
    is single-field); batching still pays off because compatible
    requests hit the same warm mesh back-to-back, so plans are reused —
    steady state shows ``plan_misses == 0`` per job.

    Parameters
    ----------
    pool:
        A *connected* :class:`~repro.pool.RankPool`.  Its lifecycle
        belongs to the caller.
    job_hook:
        Chaos seam (:data:`JobHook`): may rewrite each job's
        :class:`~repro.dist.worker.DistConfig` before submission.
    """

    def __init__(self, pool: "RankPool", job_hook: Optional[JobHook] = None):
        self.pool = pool
        self.job_hook = job_hook
        #: recent :class:`~repro.pool.pool.PoolJobReport`\ s, oldest first
        self.job_reports: "deque[PoolJobReport]" = deque(maxlen=64)
        self._lock = threading.Lock()
        self._job_index = 0
        #: roster generation the last job ran under (None before the first)
        self._generation: Optional[int] = None
        # bound by the server via bind():
        self._kernels = None
        self._clock = None
        self._metrics = None

    # -- server seam ---------------------------------------------------------
    def bind(self, kernels, clock, metrics) -> None:
        """Wire in the server's kernel registry, clock and metrics."""
        self._kernels = kernels
        self._clock = clock
        self._metrics = metrics

    @property
    def engine_count(self) -> int:
        """Warm execution substrates: the one pool."""
        return 1

    def describe(self) -> dict:
        """JSON-safe backend state for the server snapshot."""
        roster = self.pool.roster
        with self._lock:
            last = self.job_reports[-1] if self.job_reports else None
            doc = {
                "type": "pool",
                "jobs": self._job_index,
                "ranks": roster.size if roster else 0,
                "generation": roster.generation if roster else None,
            }
        if last is not None:
            doc["last_job"] = {
                "job_id": last.job_id,
                "generation": last.generation,
                "warm": last.warm,
                "plan_misses": last.plan_misses,
                "recovered": last.recovered,
                "replaced_ranks": list(last.replaced_ranks),
                "wire_over_model": last.wire_over_model,
                "predicted_value_bytes": last.predicted_value_bytes,
                "eq6_value_bytes": last.eq6_value_bytes,
            }
        return doc

    # -- execution -----------------------------------------------------------
    def execute(self, batch: Batch) -> Tuple[List[ConvolutionResult], float]:
        """Run one batch, one pool job per request: the per-request
        results and the execution time."""
        if self._metrics is None:
            raise ConfigurationError("PoolBackend is not bound to a server")
        t0 = self._clock.now()
        results = [self._run_request(request) for request in batch.requests]
        return results, self._clock.now() - t0

    def _run_request(self, request) -> ConvolutionResult:
        from repro.dist.worker import DistConfig

        spectrum = self._kernels.get(request.kernel)
        if spectrum is None:
            raise ConfigurationError(
                f"kernel {request.kernel!r} is not registered with the server"
            )
        roster = self.pool.roster
        if roster is None:
            raise ConfigurationError("the pool is not connected")
        config = DistConfig(
            n=request.n,
            k=request.k,
            policy=policy_spec(request.policy),
            batch=request.batch,
            num_ranks=roster.size,
            transport="tcp",
        )
        with self._lock:
            self._job_index += 1
            job_index = self._job_index
            generation = (
                roster.generation if self._generation is None else self._generation
            )
        if self.job_hook is not None:
            config = self.job_hook(job_index, config)
        metadata = {"request_id": request.request_id, "job_index": job_index}

        def submit(expected_generation: int) -> "PoolJobReport":
            return self.pool.submit(
                config,
                field=request.field,
                spectrum=spectrum,
                metadata=metadata,
                expected_generation=expected_generation,
            )

        try:
            report = submit(generation)
        except StaleGenerationError:
            # The roster moved under us (recovery elsewhere): refresh the
            # observed generation and resubmit once.
            self._metrics.counter("pool.generation_bumps").inc()
            report = submit(self.pool.roster.generation)
        with self._lock:
            # recovery bumps the roster generation mid-job; the report
            # carries the generation the job finally ran under
            self._generation = report.generation
            self.job_reports.append(report)
        self._record(report)
        return self._to_result(report)

    def _record(self, report: "PoolJobReport") -> None:
        from repro.dist.ledger import sent_wire_bytes

        m = self._metrics
        m.counter("pool.jobs").inc()
        m.counter("pool.plan_hits").inc(report.plan_hits)
        m.counter("pool.plan_misses").inc(report.plan_misses)
        if report.recovered:
            m.counter("pool.recoveries").inc()
        if report.replaced_ranks:
            m.counter("pool.replacements").inc(len(report.replaced_ranks))
        if report.driver_fallback:
            m.counter("pool.driver_fallbacks").inc()
        m.counter("pool.wire_bytes").inc(sent_wire_bytes(report.wire_totals))
        m.counter("pool.control_bytes").inc(report.control_in_bytes)

    @staticmethod
    def _to_result(report: "PoolJobReport") -> ConvolutionResult:
        cfg = report.config
        ranks = report.rank_results.values()
        return ConvolutionResult(
            approx=report.approx,
            n=cfg.n,
            k=cfg.k,
            num_subdomains=(cfg.n // cfg.k) ** 3,
            total_samples=sum(r.total_samples for r in ranks),
            compressed_bytes=sum(r.compressed_bytes for r in ranks),
            elapsed_s=report.elapsed_s,
            comm_rounds=1,
            comm_bytes=report.exchange_wire_bytes,
        )
