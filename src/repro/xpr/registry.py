"""Trial registry: mode names -> runnable bench entry points.

The runner never knows how a trial executes; it looks the trial's
``mode`` up here and calls the registered entry point.  The built-in
runners wrap the same machinery the standalone ``benchmarks/bench_*.py``
scripts drive — pipeline construction via the dist worker helpers, the
SPMD driver, the serve-bench harness — so a grid point measures exactly
what the corresponding bench script measures, minus the report plumbing.

Entry points take a :class:`~repro.xpr.grid.TrialSpec` and return a flat
``{metric_name: value}`` dict for ONE execution; the runner handles
repeats, timing, timeouts, and retries around them.  Register custom
runners with :meth:`BenchRegistry.register` (tests inject hanging and
crashing trials this way).

This module also owns :func:`bench_argument_parser`, the common option
parser (``--repeats`` / ``--output`` / ``--quick``) every standalone
bench script under ``benchmarks/`` inherits instead of re-declaring its
own argparse boilerplate.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, List, Optional

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
    from repro.dist.launcher import default_spectrum
    from repro.dist.worker import build_pipeline, composite_field

    config = _dist_config(spec)
    pipeline = build_pipeline(config, default_spectrum(config))
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

    from repro.dist.launcher import default_spectrum
    from repro.dist.worker import build_pipeline, composite_field

    config = _dist_config(spec)
    pipeline = build_pipeline(config, default_spectrum(config))
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

    from repro.dist.launcher import default_spectrum, dist_run
    from repro.dist.worker import build_pipeline, composite_field

    config = _dist_config(
        spec,
        num_ranks=spec.ranks,
        transport=spec.transport,
        overlap=spec.overlap,
        window=spec.window,
    )
    field = composite_field(spec.n, spec.seed)
    spectrum = default_spectrum(config)
    report = dist_run(config, field=field, spectrum=spectrum)
    serial = build_pipeline(config, spectrum).run_serial(field)
    metrics = {
        "exchange_wire_bytes": float(report.exchange_wire_bytes),
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


def pool_trial_metrics(pool, spec: TrialSpec) -> Dict[str, float]:
    """Run ``spec`` twice on a connected :class:`~repro.pool.RankPool`.

    The first submission may be cold (plan builds); the second must be
    warm — same mesh, same agents, plans served from the cache.  Both
    results are bitwise-checked against ``run_serial`` and the warm
    job's wire traffic is audited against the Eq 6 model, so the gate
    watches correctness and pool warmth together.  ``speedup`` is
    first-submit over warm-submit wall time.
    """
    import numpy as np

    from repro.dist.launcher import default_spectrum
    from repro.dist.worker import build_pipeline, composite_field
    from repro.serve.clock import MonotonicClock

    clock = MonotonicClock()
    config = _dist_config(spec, num_ranks=spec.ranks, transport="tcp")
    field = composite_field(spec.n, spec.seed)
    spectrum = default_spectrum(config)
    t0 = clock.now()
    first = pool.submit(config, field=field, spectrum=spectrum)
    first_s = clock.now() - t0
    t1 = clock.now()
    second = pool.submit(config, field=field, spectrum=spectrum)
    warm_s = clock.now() - t1
    serial = build_pipeline(config, spectrum).run_serial(field)
    bitwise = np.array_equal(first.approx, serial.approx) and np.array_equal(
        second.approx, serial.approx
    )
    return {
        "bitwise_vs_serial": float(bitwise),
        "wire_over_model": float(second.wire_over_model),
        "exchange_wire_bytes": float(second.exchange_wire_bytes),
        "first_submit_s": float(first_s),
        "warm_submit_s": float(warm_s),
        "speedup": float(first_s / warm_s) if warm_s > 0 else 0.0,
        "warm_plan_misses": float(second.plan_misses),
    }


@REGISTRY.register("pool")
def run_pool_trial(spec: TrialSpec) -> Dict[str, float]:
    """One standing-pool trial on a private rendezvous-bootstrapped mesh.

    Stands up a file-rendezvous pool of ``spec.ranks`` agents, routes the
    spec through the :func:`~repro.pool.pool.pool_executor` runner seam
    (the same path a ``Runner(executor=pool_executor(pool))`` takes), and
    tears the pool down afterwards.
    """
    import tempfile

    from repro.pool.pool import RankPool, pool_executor

    rendezvous = f"file://{tempfile.mkdtemp(prefix='xpr-pool-')}"
    pool = RankPool(rendezvous)
    try:
        pool.spawn(spec.ranks)
        pool.connect(spec.ranks, timeout_s=30.0)
        execute = pool_executor(pool)
        # mode == "pool", so the seam routes to pool_trial_metrics; the
        # entry-point argument is only the non-pool fall-through
        return execute(run_pool_trial, spec)
    finally:
        pool.down()


@REGISTRY.register("serve-pool")
def run_serve_pool_trial(spec: TrialSpec) -> Dict[str, float]:
    """One dist-backed serving trial: server batches onto a standing pool.

    Stands up a file-rendezvous pool of ``spec.ranks`` agents, serves a
    small deterministic stream through
    :class:`~repro.serve.dist_backend.PoolBackend`, and cross-checks the
    results bitwise against the in-process batched server — the one
    property that makes the pool a transparent execution substrate.
    """
    import tempfile

    import numpy as np

    from repro.core.policy import parse_policy
    from repro.pool.pool import RankPool
    from repro.serve.loadgen import (
        LoadSpec,
        run_batched_server,
        run_pool_backed_server,
    )
    from repro.serve.server import ServerConfig

    load = LoadSpec(
        n=spec.n,
        k=spec.k,
        num_requests=3,
        num_kernels=1,
        sigma=spec.sigma,
        policy=spec.policy,
        seed=spec.seed,
    )
    policy = parse_policy(spec.policy)

    def server_config() -> ServerConfig:
        return ServerConfig(n=spec.n, k=spec.k, max_batch_size=4, max_wait_s=0.01)

    local_s, local_results, _ = run_batched_server(load, policy, server_config())
    rendezvous = f"file://{tempfile.mkdtemp(prefix='xpr-serve-pool-')}"
    pool = RankPool(rendezvous)
    try:
        pool.spawn(spec.ranks)
        pool.connect(spec.ranks, timeout_s=30.0)
        pool_s, pool_results, server = run_pool_backed_server(
            load, policy, pool, server_config()
        )
    finally:
        pool.down()
    snap = server.snapshot()
    last = snap.get("backend", {}).get("last_job", {})
    return {
        "bitwise_vs_local": float(
            all(np.array_equal(a, b) for a, b in zip(local_results, pool_results))
        ),
        "local_s": float(local_s),
        "pool_s": float(pool_s),
        "warm_plan_misses": float(last.get("plan_misses", -1)),
        "pool_recoveries": float(
            snap["counters"].get("pool.recoveries", 0)
        ),
        "requests_completed": float(
            snap["counters"].get("requests_completed", 0)
        ),
    }


def bench_argument_parser(
    description: str,
    *,
    default_output: str,
    default_repeats: int,
    repeats_help: Optional[str] = None,
) -> argparse.ArgumentParser:
    """The common CLI every standalone bench script inherits.

    Declares the three options all ``benchmarks/bench_*.py`` writers
    share — ``--repeats``, ``--output``, ``--quick`` — once, here, so
    the scripts only add their bench-specific flags on top.
    """
    parser = argparse.ArgumentParser(
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=default_repeats,
        help=repeats_help
        or f"timed runs per configuration (default {default_repeats})",
    )
    parser.add_argument(
        "--output",
        default=default_output,
        help=f"where to write the bench report JSON "
        f"(default {default_output})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink the sweep for smoke runs (fewer configurations "
        "and/or iterations; same schema)",
    )
    return parser
