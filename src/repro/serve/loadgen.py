"""Deterministic synthetic load generation + the serve-bench driver.

The load generator produces a reproducible stream of convolution requests
(seeded fields, optionally spread over several kernels so the stream is
only *partially* batchable — the realistic case).  The benchmark driver
serves the same stream two ways and compares throughput:

- **naive** — the one-request-at-a-time executor a service without a
  batching layer would be: each request handled independently with a
  freshly constructed pipeline (no shared sampling patterns, no shared
  pruned-FFT plans), exactly like a stateless per-request handler;
- **batched** — through :class:`~repro.serve.server.ConvolutionServer`,
  where the dynamic batcher groups congruent requests onto warm engines.

Both paths produce bitwise-identical results (verified per request), so
the speedup is pure fixed-cost amortization — the paper's batch-processing
claim measured end to end.  ``python -m repro serve-bench`` prints the
audit; the pinned numbers for the serving tier are the
``serve_open_loop`` workload of ``python3 bench/run.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

import numpy as np

from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy, parse_policy
from repro.kernels.gaussian import GaussianKernel
from repro.serve.dist_backend import PoolBackend
from repro.serve.server import ConvolutionServer, ServerConfig
from repro.util.clock import Clock, MonotonicClock
from repro.util.validation import check_positive_int


@dataclass
class LoadSpec:
    """A reproducible synthetic request stream.

    ``num_kernels > 1`` spreads requests round-robin over that many
    Gaussian kernels of different widths, producing several compatibility
    groups (each still batchable within itself).
    """

    n: int = 64
    k: int = 16
    num_requests: int = 16
    num_kernels: int = 1
    sigma: float = 2.0
    policy: str = "banded"
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        check_positive_int(self.k, "k")
        check_positive_int(self.num_requests, "num_requests")
        check_positive_int(self.num_kernels, "num_kernels")

    def kernels(self) -> Dict[str, np.ndarray]:
        """Named kernel spectra for the stream (widths sigma, sigma+0.5...)."""
        return {
            f"gauss{i}": GaussianKernel(n=self.n, sigma=self.sigma + 0.5 * i).spectrum()
            for i in range(self.num_kernels)
        }

    def requests(self) -> List[dict]:
        """The deterministic stream: one ``{"field", "kernel"}`` per request."""
        rng = np.random.default_rng(self.seed)
        out = []
        for i in range(self.num_requests):
            # Composite-like inputs (signal in the central half-cube), as
            # the pipeline CLI uses — the workload the error analysis targets.
            field = np.zeros((self.n,) * 3)
            q = self.n // 4
            field[q : self.n - q, q : self.n - q, q : self.n - q] = (
                rng.standard_normal((self.n - 2 * q,) * 3)
            )
            out.append({"field": field, "kernel": f"gauss{i % self.num_kernels}"})
        return out


@dataclass
class BenchReport:
    """Outcome of one serve-bench run (see :func:`run_serve_benchmark`)."""

    naive_s: float
    batched_s: float
    bitwise_identical: bool
    batches: int
    batch_size_mean: float
    extras: dict = dataclass_field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Naive elapsed over batched elapsed (higher = batching wins)."""
        return self.naive_s / self.batched_s if self.batched_s else float("inf")


def run_naive_baseline(
    spec: LoadSpec, policy: SamplingPolicy, clock: Optional[Clock] = None
) -> tuple:
    """Serve the stream one request at a time, stateless per request.

    Returns ``(elapsed_s, results)`` where results are the dense approx
    arrays in stream order.  Timing reads the injectable ``clock``
    (monotonic by default), like everything else in the serving layer.
    """
    clock = clock or MonotonicClock()
    kernels = spec.kernels()
    stream = spec.requests()
    t0 = clock.now()
    results = []
    for item in stream:
        pipeline = LowCommConvolution3D(spec.n, spec.k, kernels[item["kernel"]], policy)
        results.append(pipeline.run_serial(item["field"]).approx)
    return clock.now() - t0, results


def run_batched_server(
    spec: LoadSpec,
    policy: SamplingPolicy,
    config: Optional[ServerConfig] = None,
    clock: Optional[Clock] = None,
    executor=None,
) -> tuple:
    """Serve the stream through the batching server (the one stream driver).

    ``executor`` replaces the server's in-process batch executor — pass a
    :class:`~repro.serve.dist_backend.PoolBackend` to run every batch on
    a standing rank pool.  Returns ``(elapsed_s, handles, server)`` with
    the handles in stream order and all terminal; elapsed covers submit
    through last completion (the server is constructed outside the timed
    region, matching the naive baseline, which also pays construction
    per request *inside* its loop — that asymmetry is the point).
    """
    clock = clock or MonotonicClock()
    config = config or ServerConfig()
    config.n, config.k = spec.n, spec.k
    config.default_policy = policy
    server = ConvolutionServer(config, clock=clock, executor=executor)
    for name, spectrum in spec.kernels().items():
        server.register_kernel(name, spectrum)
    stream = spec.requests()
    t0 = clock.now()
    handles = [server.submit(item["field"], kernel=item["kernel"]) for item in stream]
    server.drain()
    return clock.now() - t0, handles, server


def run_serve_benchmark(
    spec: LoadSpec,
    config: Optional[ServerConfig] = None,
    pool=None,
) -> BenchReport:
    """Naive vs batched serving of the same stream, results cross-checked.

    Also verifies the batched results bitwise against a *direct*
    ``LowCommConvolution3D.run_serial`` per request — the acceptance
    property that batching is a pure reordering, not an approximation.

    With a connected ``pool``, a third pass serves the same stream
    through the pool-backed server (A/B against the in-process path,
    same bitwise cross-check) and records it under
    ``extras["pool_backed"]``.
    """
    policy = parse_policy(spec.policy)
    # Warm process-wide tables (patterns, FFT and reconstruction plans)
    # once so neither timed section gets a cold-start handicap the other
    # doesn't: the comparison targets steady-state serving.
    warm = LoadSpec(
        n=spec.n, k=spec.k, num_requests=1, num_kernels=1,
        sigma=spec.sigma, policy=spec.policy, seed=spec.seed,
    )
    run_naive_baseline(warm, policy)

    naive_s, naive_results = run_naive_baseline(spec, policy)
    batched_s, handles, server = run_batched_server(spec, policy, config)
    batched_results = [h.result(timeout=0).approx for h in handles]

    identical = all(
        np.array_equal(a, b) for a, b in zip(naive_results, batched_results)
    )
    snap = server.snapshot()
    sizes = snap["histograms"].get("batch.size", {})
    extras: dict = {}
    if pool is not None:
        pool_s, pool_handles, pool_server = run_batched_server(
            spec, policy, config, executor=PoolBackend(pool)
        )
        extras["pool_backed"] = {
            "elapsed_s": pool_s,
            "bitwise_identical": all(
                np.array_equal(a, h.result(timeout=0).approx)
                for a, h in zip(batched_results, pool_handles)
            ),
            "ranks": pool.roster.size if pool.roster else 0,
            "plan_misses": pool_server.snapshot()["counters"].get(
                "pool.plan_misses", 0
            ),
        }
    return BenchReport(
        naive_s=naive_s,
        batched_s=batched_s,
        bitwise_identical=identical,
        batches=snap["counters"].get("batches_executed", 0),
        batch_size_mean=float(sizes.get("mean", 0.0)),
        extras=extras,
    )
