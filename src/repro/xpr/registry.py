"""Trial registry: mode names -> runnable trial entry points.

The runner never knows how a trial executes; it looks the trial's
``mode`` up here and calls the registered entry point.  The built-in
runners drive the product's front doors — pipeline construction via the
dist worker helpers, the SPMD driver, a standing rank pool, the
serve-bench harness — each bitwise-checked against ``run_serial``.

Entry points take a :class:`~repro.xpr.grid.TrialSpec` and return a flat
``{metric_name: value}`` dict for ONE execution; the runner handles
repeats, timing, timeouts, and retries around them.  Register custom
runners with :meth:`BenchRegistry.register` (tests inject hanging and
crashing trials this way).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigurationError
from repro.xpr.grid import TrialSpec

#: A trial entry point: run the spec once, return flat numeric metrics.
TrialRunner = Callable[[TrialSpec], Dict[str, float]]


class BenchRegistry:
    """Maps trial modes to entry points (see module docstring)."""

    def __init__(self) -> None:
        self._runners: Dict[str, TrialRunner] = {}

    def register(
        self, mode: str
    ) -> Callable[[TrialRunner], TrialRunner]:
        """Decorator: register ``fn`` as the runner for ``mode``."""

        def deco(fn: TrialRunner) -> TrialRunner:
            self._runners[mode] = fn
            return fn

        return deco

    def get(self, mode: str) -> TrialRunner:
        """The runner for ``mode``; unknown modes fail loudly."""
        try:
            return self._runners[mode]
        except KeyError:
            raise ConfigurationError(
                f"no bench registered for mode {mode!r}; "
                f"known: {self.modes()}"
            ) from None

    def modes(self) -> List[str]:
        """Sorted registered mode names."""
        return sorted(self._runners)

    def run(self, spec: TrialSpec) -> Dict[str, float]:
        """Execute ``spec`` once via its registered entry point."""
        return self.get(spec.mode)(spec)


#: The process-wide default registry the CLI and runner use.
REGISTRY = BenchRegistry()


def default_registry() -> BenchRegistry:
    """The registry with all built-in mode runners registered."""
    return REGISTRY


def _dist_config(spec: TrialSpec, **overrides):
    """A DistConfig carrying the spec's shared pipeline parameters."""
    from repro.dist.worker import DistConfig

    kwargs = dict(
        n=spec.n,
        k=spec.k,
        sigma=spec.sigma,
        policy=spec.policy,
        seed=spec.seed,
    )
    kwargs.update(overrides)
    return DistConfig(**kwargs)


@REGISTRY.register("serial")
def run_serial_trial(spec: TrialSpec) -> Dict[str, float]:
    """One in-process serial pipeline run on the composite field."""
    from repro.dist.worker import build_pipeline, composite_field

    config = _dist_config(spec)
    pipeline = build_pipeline(config)
    result = pipeline.run_serial(composite_field(spec.n, spec.seed))
    return {
        "total_samples": float(result.total_samples),
        "compression_ratio": float(result.compression_ratio),
        "num_subdomains": float(result.num_subdomains),
    }


@REGISTRY.register("parallel")
def run_parallel_trial(spec: TrialSpec) -> Dict[str, float]:
    """One process-pool parallel run, bitwise-checked against serial."""
    import numpy as np

    from repro.dist.worker import build_pipeline, composite_field

    config = _dist_config(spec)
    pipeline = build_pipeline(config)
    field = composite_field(spec.n, spec.seed)
    result = pipeline.run_parallel(field)
    serial = pipeline.run_serial(field)
    return {
        "total_samples": float(result.total_samples),
        "compression_ratio": float(result.compression_ratio),
        "bitwise_vs_serial": float(
            np.array_equal(result.approx, serial.approx)
        ),
    }


@REGISTRY.register("dist")
def run_dist_trial(spec: TrialSpec) -> Dict[str, float]:
    """One SPMD job (transport/ranks/overlap from the spec) + wire audit."""
    import numpy as np

    from repro.dist.launcher import dist_run
    from repro.dist.worker import build_pipeline, composite_field

    config = _dist_config(
        spec,
        num_ranks=spec.ranks,
        transport=spec.transport,
        overlap=spec.overlap,
        window=spec.window,
    )
    field = composite_field(spec.n, spec.seed)
    report = dist_run(config, field=field)
    serial = build_pipeline(config).run_serial(field)
    metrics = {
        "exchange_wire_bytes": float(report.exchange_wire_bytes),
        "predicted_value_bytes": float(report.predicted_value_bytes),
        "eq6_value_bytes": float(report.eq6_value_bytes),
        "wire_over_model": float(report.wire_over_model),
        "max_compute_s": float(report.max_compute_s),
        "max_exchange_s": float(report.max_exchange_s),
        "bitwise_vs_serial": float(
            np.array_equal(report.approx, serial.approx)
        ),
    }
    if spec.overlap:
        ranks = report.rank_results.values()
        send = sum(r.exchange_send_s for r in ranks)
        hidden = sum(r.exchange_hidden_s for r in ranks)
        metrics["exchange_send_s"] = float(send)
        metrics["exchange_hidden_s"] = float(hidden)
    return metrics


@REGISTRY.register("serve")
def run_serve_trial(spec: TrialSpec) -> Dict[str, float]:
    """One serve-bench pass: batched server vs the naive baseline."""
    from repro.serve.loadgen import LoadSpec, run_serve_benchmark
    from repro.serve.server import ServerConfig

    load = LoadSpec(
        n=spec.n,
        k=spec.k,
        num_requests=4,
        num_kernels=1,
        sigma=spec.sigma,
        policy=spec.policy,
        seed=spec.seed,
    )
    config = ServerConfig(
        n=spec.n, k=spec.k, max_batch_size=4, max_wait_s=0.01
    )
    report = run_serve_benchmark(load, config)
    return {
        "naive_s": float(report.naive_s),
        "batched_s": float(report.batched_s),
        "speedup": float(report.speedup),
        "batches": float(report.batches),
        "bitwise_identical": float(report.bitwise_identical),
    }


@REGISTRY.register("pool")
def run_pool_trial(spec: TrialSpec) -> Dict[str, float]:
    """One standing-pool trial: the spec twice on a private mesh.

    Stands up a private file-rendezvous pool of ``spec.ranks`` agents
    (:func:`~repro.pool.pool.private_pool` tears it down and removes the
    rendezvous directory).  The first submission may be cold (plan
    builds); the second must be warm — same mesh, same agents, plans
    served from the cache.  Both results are bitwise-checked against
    ``run_serial`` and the warm job's wire traffic is audited against
    the Eq 6 model, so the gate watches correctness and pool warmth
    together.  ``speedup`` is first-submit over warm-submit wall time.
    """
    import numpy as np

    from repro.dist.worker import build_pipeline, composite_field
    from repro.pool.pool import private_pool
    from repro.util.clock import MonotonicClock

    clock = MonotonicClock()
    config = _dist_config(spec, num_ranks=spec.ranks, transport="tcp")
    field = composite_field(spec.n, spec.seed)
    with private_pool(spec.ranks) as pool:
        t0 = clock.now()
        first = pool.submit(config, field=field)
        first_s = clock.now() - t0
        t1 = clock.now()
        second = pool.submit(config, field=field)
        warm_s = clock.now() - t1
    serial = build_pipeline(config).run_serial(field)
    bitwise = np.array_equal(first.approx, serial.approx) and np.array_equal(
        second.approx, serial.approx
    )
    return {
        "bitwise_vs_serial": float(bitwise),
        "wire_over_model": float(second.wire_over_model),
        "exchange_wire_bytes": float(second.exchange_wire_bytes),
        "predicted_value_bytes": float(second.predicted_value_bytes),
        "eq6_value_bytes": float(second.eq6_value_bytes),
        "first_submit_s": float(first_s),
        "warm_submit_s": float(warm_s),
        "speedup": float(first_s / warm_s) if warm_s > 0 else 0.0,
        "warm_plan_misses": float(second.plan_misses),
    }
