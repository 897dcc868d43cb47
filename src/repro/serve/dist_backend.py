"""Dist-backed serving: route batches onto standing rank pools.

:class:`PoolBackend` is a drop-in executor for
:class:`~repro.serve.server.ConvolutionServer` (the ``executor=`` seam)
that runs each request as a ``dist_run``-shaped job on a warm
:class:`~repro.pool.RankPool` mesh instead of an in-process
:class:`~repro.core.pipeline.LowCommConvolution3D`.  One serving front door then
spans hosts: admission control, batching, and retries stay exactly as
they are, while execution lands on long-lived agent processes whose
plan caches and transports persist across requests.

Three serving-tier concerns live here, not in the pool:

**Routing.**  Batches are routed to sub-pools by consistent hashing of
the batching compatibility key (:func:`compat_key_string` over a
:class:`ConsistentHashRing`).  The same key always lands on the same
sub-pool — warm plans stay warm — and growing N sub-pools to N+1 remaps
only ~1/N of the key space, so a capacity change does not flush every
pool's plan cache.

**Fencing.**  Every submission carries the backend's last-observed
roster generation (``expected_generation``); if the pool membership
changed underneath, the pool raises
:class:`~repro.errors.StaleGenerationError` instead of silently running
on an unobserved roster, and the backend refreshes its view and
resubmits once (counted in ``pool.generation_bumps``).

**Attribution.**  Each job's exact per-job wire counters
(:attr:`~repro.pool.pool.PoolJobReport.wire_totals`) are charged to the
submitting request's tenant in the server's metrics registry, under
``tenant.<tenant>.wire.<counter>``, so the serve metrics snapshot answers
"who moved how many bytes" per tenant.

Failover is the pool's checkpoint-handoff path, reused transparently: a
rank death mid-job recovers in-mesh (survivors restore from posted
checkpoints, a replacement recomputes the dead rank's share) and the
request completes normally — bitwise identical to the single-process
path — with the evidence surfaced as ``pool.recoveries`` /
``pool.replacements`` counters and ``replaced_ranks`` on the report.

Bitwise identity: the pool path is a reordering of
:meth:`~repro.core.pipeline.LowCommConvolution3D.run_serial`, which the
local executor calls directly, so a pool-backed server returns
bit-identical results to a local one.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.pipeline import ConvolutionResult
from repro.core.policy import policy_spec
from repro.errors import ConfigurationError, StaleGenerationError
from repro.serve.request import CompatKey, RequestState
from repro.serve.scheduler import Batch
from repro.util.metrics import DEFAULT_SIZE_BUCKETS

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

#: Virtual nodes per sub-pool on the routing ring.  More replicas =
#: smoother key distribution and a tighter ~1/N remap bound on resize.
DEFAULT_RING_REPLICAS = 128


def compat_key_string(key: CompatKey) -> str:
    """Stable string form of a batching compatibility key (hash input).

    Uses the policy's *spec string* rather than its repr so the routing
    decision is identical in every process that can express the policy.
    """
    n, k, kernel, policy, real_kernel, batch = key
    return "/".join(
        str(part) for part in (n, k, kernel, policy_spec(policy), real_kernel, batch)
    )


def _ring_hash(token: str) -> int:
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big"
    )


class ConsistentHashRing:
    """Consistent hashing of key strings onto named sub-pools.

    Each name owns ``replicas`` pseudo-random points on a 64-bit ring; a
    key is assigned to the owner of the first point at or after the
    key's own hash (wrapping).  Adding a name steals only the key ranges
    that fall to its new points — in expectation ``1/(N+1)`` of the key
    space — and removing a name reassigns only the ranges it owned.
    """

    def __init__(self, replicas: int = DEFAULT_RING_REPLICAS):
        if replicas < 1:
            raise ConfigurationError(f"need replicas >= 1, got {replicas}")
        self.replicas = int(replicas)
        self._points: List[int] = []  # sorted virtual-node hashes
        self._owners: Dict[int, str] = {}  # point hash -> name
        self._names: List[str] = []

    @property
    def names(self) -> List[str]:
        """Member names, in insertion order."""
        return list(self._names)

    def add(self, name: str) -> None:
        """Add ``name`` to the ring (idempotent-hostile: once only)."""
        if name in self._names:
            raise ConfigurationError(f"ring already contains {name!r}")
        self._names.append(name)
        for i in range(self.replicas):
            point = _ring_hash(f"{name}#{i}")
            # sha256 collisions across distinct tokens are not a practical
            # concern; last writer would win, harmlessly skewing one point
            bisect.insort(self._points, point)
            self._owners[point] = name
        self._owners = dict(self._owners)

    def remove(self, name: str) -> None:
        """Remove ``name`` and every virtual node it owns."""
        if name not in self._names:
            raise ConfigurationError(f"ring does not contain {name!r}")
        self._names.remove(name)
        for i in range(self.replicas):
            point = _ring_hash(f"{name}#{i}")
            if self._owners.get(point) == name:
                del self._owners[point]
                idx = bisect.bisect_left(self._points, point)
                if idx < len(self._points) and self._points[idx] == point:
                    del self._points[idx]

    def assign(self, key_string: str) -> str:
        """The name owning ``key_string`` (deterministic)."""
        if not self._points:
            raise ConfigurationError("ring is empty (add() a pool first)")
        h = _ring_hash(key_string)
        idx = bisect.bisect_right(self._points, h)
        if idx == len(self._points):
            idx = 0  # wrap: first point owns the tail of the ring
        return self._owners[self._points[idx]]


class PoolBackend:
    """Executor that runs server batches as jobs on standing rank pools.

    Implements the :class:`~repro.serve.executor.BatchExecutor` protocol
    (``execute`` / ``engine_count``) plus the optional server-seam hooks
    (``bind`` / ``describe`` / ``close``), so
    ``ConvolutionServer(config, executor=PoolBackend({...}))`` swaps the
    execution substrate without touching admission, batching, or retry.

    Each request in a batch becomes one pool job (the pool's job shape
    is single-field); batching still pays off because compatible
    requests hit the same warm mesh back-to-back, so plans are reused —
    steady state shows ``plan_misses == 0`` per job.

    Parameters
    ----------
    pools:
        Named, *connected* :class:`~repro.pool.RankPool` sub-pools.
        Routing is by consistent hash of the compatibility key.
    job_hook:
        Chaos seam (:data:`JobHook`): may rewrite each job's
        :class:`~repro.dist.worker.DistConfig` before submission.
    own_pools:
        When true, :meth:`close` downs the pools (the backend created
        them); otherwise pool lifecycle belongs to the caller.
    replicas:
        Virtual nodes per sub-pool on the routing ring.
    """

    def __init__(
        self,
        pools: Dict[str, "RankPool"],
        job_hook: Optional[JobHook] = None,
        own_pools: bool = False,
        replicas: int = DEFAULT_RING_REPLICAS,
    ):
        if not pools:
            raise ConfigurationError("PoolBackend needs at least one pool")
        self.pools = dict(pools)
        self.ring = ConsistentHashRing(replicas)
        for name in self.pools:
            self.ring.add(name)
        self.job_hook = job_hook
        self.own_pools = own_pools
        #: recent :class:`~repro.pool.pool.PoolJobReport`\ s, oldest first
        self.job_reports: "deque[PoolJobReport]" = deque(maxlen=64)
        self._lock = threading.Lock()
        self._job_index = 0
        self._generations: Dict[str, int] = {}
        self._closed = False
        # bound by the server via bind():
        self._kernels: Optional[Dict[str, object]] = None
        self._clock = None
        self._metrics = None
        self._config = None

    # -- server seam ---------------------------------------------------------
    def bind(self, kernels, clock, metrics, config) -> None:
        """Wire in the server's kernel registry, clock, metrics, config."""
        self._kernels = kernels
        self._clock = clock
        self._metrics = metrics
        self._config = config

    @property
    def engine_count(self) -> int:
        """Warm execution substrates = connected sub-pools."""
        return len(self.pools)

    def describe(self) -> dict:
        """JSON-safe backend state for the server snapshot."""
        with self._lock:
            last = self.job_reports[-1] if self.job_reports else None
            doc = {
                "type": "pool",
                "jobs": self._job_index,
                "pools": {
                    name: {
                        "ranks": pool.roster.size if pool.roster else 0,
                        "generation": self._generations.get(
                            name,
                            pool.roster.generation if pool.roster else None,
                        ),
                    }
                    for name, pool in self.pools.items()
                },
                "tenants": self._tenants(),
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

    def close(self) -> None:
        """Release the backend; downs the pools only when it owns them."""
        if self._closed:
            return
        self._closed = True
        if self.own_pools:
            for pool in self.pools.values():
                pool.down()

    # -- routing -------------------------------------------------------------
    def route(self, key: CompatKey) -> str:
        """The sub-pool name a compatibility key lands on."""
        return self.ring.assign(compat_key_string(key))

    # -- execution -----------------------------------------------------------
    def execute(self, batch: Batch) -> Tuple[List[ConvolutionResult], float]:
        """Run one batch, one pool job per request, on the routed sub-pool.

        Mirrors :meth:`BatchExecutor.execute`'s contract: on success all
        handles resolve DONE; on any exception handles stay unresolved
        and the error propagates so the server retries the whole batch.
        """
        if self._metrics is None:
            raise ConfigurationError("PoolBackend is not bound to a server")
        now = self._clock.now()
        for request in batch.requests:
            request.attempts += 1
            request.run_started_at = now
            request.handle._set_state(RequestState.RUNNING)
            self._metrics.observe("stage.queue_wait_s", now - request.queued_at)
        pool_name = self.route(batch.key)
        pool = self.pools[pool_name]
        self._metrics.counter(f"pool.route.{pool_name}").inc()
        t0 = self._clock.now()
        results = [
            self._run_request(pool_name, pool, request)
            for request in batch.requests
        ]
        elapsed = self._clock.now() - t0
        self._metrics.observe("stage.execute_s", elapsed)
        self._metrics.observe(
            "batch.size", len(batch.requests), buckets=DEFAULT_SIZE_BUCKETS
        )
        self._metrics.counter("batches_executed").inc()
        done = self._clock.now()
        for request, conv_result in zip(batch.requests, results):
            if request.handle._finish(RequestState.DONE, result=conv_result):
                self._metrics.counter("requests_completed").inc()
                self._metrics.observe("latency.e2e_s", done - request.submitted_at)
                self._metrics.observe(
                    f"tenant.{request.tenant}.latency.e2e_s",
                    done - request.submitted_at,
                )
        return results, elapsed

    def _run_request(self, pool_name, pool, request) -> ConvolutionResult:
        from repro.dist.worker import DistConfig

        spectrum = self._kernels.get(request.kernel)
        if spectrum is None:
            raise ConfigurationError(
                f"kernel {request.kernel!r} is not registered with the server"
            )
        roster = pool.roster
        if roster is None:
            raise ConfigurationError(f"pool {pool_name!r} is not connected")
        config = DistConfig(
            n=request.n,
            k=request.k,
            policy=policy_spec(request.policy),
            interpolation=self._config.interpolation,
            batch=request.batch,
            real_kernel=request.real_kernel,
            num_ranks=roster.size,
            transport="tcp",
        )
        with self._lock:
            self._job_index += 1
            job_index = self._job_index
            generation = self._generations.get(pool_name, roster.generation)
        if self.job_hook is not None:
            config = self.job_hook(job_index, config)
        metadata = {
            "tenant": request.tenant,
            "request_id": request.request_id,
            "job_index": job_index,
        }
        try:
            report = pool.submit(
                config,
                field=request.field,
                spectrum=spectrum,
                metadata=metadata,
                expected_generation=generation,
            )
        except StaleGenerationError:
            # The roster moved under us (recovery or resize elsewhere):
            # refresh the observed generation and resubmit once.
            self._metrics.counter("pool.generation_bumps").inc()
            generation = pool.roster.generation
            report = pool.submit(
                config,
                field=request.field,
                spectrum=spectrum,
                metadata=metadata,
                expected_generation=generation,
            )
        with self._lock:
            # recovery bumps the roster generation mid-job; the report
            # carries the generation the job finally ran under
            self._generations[pool_name] = report.generation
            self.job_reports.append(report)
        self._record(report, request)
        return self._to_result(report)

    def _record(self, report: "PoolJobReport", request) -> None:
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
        prefix = f"tenant.{request.tenant}."
        m.counter(prefix + "pool_jobs").inc()
        m.counter(prefix + "wire_bytes").inc(sent_wire_bytes(report.wire_totals))
        for name, value in report.wire_totals.items():
            m.counter(f"{prefix}wire.{name}").inc(int(value))

    def _tenants(self) -> dict:
        """``{tenant: {"jobs", "sent_bytes", "counters"}}``, read back from
        the per-tenant counters :meth:`_record` charges to the registry."""
        if self._metrics is None:
            return {}
        counters = self._metrics.snapshot()["counters"]
        tenants = {}
        for key, jobs in counters.items():
            if not (key.startswith("tenant.") and key.endswith(".pool_jobs")):
                continue
            prefix = key[: -len("pool_jobs")]
            wire = prefix + "wire."
            tenants[key[len("tenant.") : -len(".pool_jobs")]] = {
                "jobs": jobs,
                "sent_bytes": counters.get(prefix + "wire_bytes", 0),
                "counters": {
                    k[len(wire) :]: v for k, v in counters.items() if k.startswith(wire)
                },
            }
        return tenants

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
