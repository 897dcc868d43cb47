"""Batch execution: cached per-key pipelines, each request one run.

The executor keeps one warm
:class:`~repro.core.pipeline.LowCommConvolution3D` per compatibility key,
at most :data:`MAX_ENGINES` of them (least recently used go first).  An
engine holds only its kernel: patterns and pruned-FFT plans come from the
process-wide tables, so engines of one shape (two kernels, say) share
them, and congruent requests stop paying the per-request fixed costs a
naive one-request-at-a-time service rebuilds every time.

Each request is one
:meth:`~repro.core.pipeline.LowCommConvolution3D.run_serial` on the warm
pipeline, so results are bitwise
identical to a direct ``run_serial`` on the same input.  Serving on many
cores is :class:`~repro.serve.dist_backend.PoolBackend`, which runs each
request as a job on a standing rank pool.

The executor only turns a batch into results: request states, retries
and the serving metrics are the server's, which does that bookkeeping
once for every executor.  On failure the error propagates and the
server decides between retry and FAILED.  ``fault_hook`` is the
deterministic failure-injection point the retry tests use.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import ConvolutionResult, LowCommConvolution3D
from repro.errors import ConfigurationError
from repro.serve.request import CompatKey
from repro.serve.scheduler import Batch
from repro.util.clock import Clock
from repro.util.lru import WeightedLRU

#: Test seam: called as ``fault_hook(batch, attempt)`` before execution;
#: raising simulates a worker failure for that attempt.
FaultHook = Callable[[Batch, int], None]

#: Warm engines an executor keeps: each weighs 1 in its table.
MAX_ENGINES = 8


class BatchExecutor:
    """Run scheduled batches on cached per-key convolution pipelines."""

    def __init__(
        self,
        kernels: Dict[str, np.ndarray],
        clock: Clock,
        fault_hook: Optional[FaultHook] = None,
    ):
        self._kernels = kernels
        self._clock = clock
        self.fault_hook = fault_hook
        self._engines: "WeightedLRU[LowCommConvolution3D]" = WeightedLRU(MAX_ENGINES)

    # -- engine cache --------------------------------------------------------
    def engine_for(self, key: CompatKey) -> LowCommConvolution3D:
        """The warm pipeline for ``key`` (built on first use, LRU-evicted)."""
        engine = self._engines.get(key)
        if engine is not None:
            return engine
        n, k, kernel_name, policy, batch = key
        spectrum = self._kernels.get(kernel_name)
        if spectrum is None:
            raise ConfigurationError(
                f"kernel {kernel_name!r} is not registered with the server"
            )
        engine = LowCommConvolution3D(n, k, spectrum, policy, batch=batch)
        return self._engines.put(key, engine, 1)

    # -- execution -----------------------------------------------------------
    def execute(self, batch: Batch) -> Tuple[List[ConvolutionResult], float]:
        """Run one batch: the per-request results and the execution time."""
        if self.fault_hook is not None:
            self.fault_hook(batch, batch.requests[0].attempts)
        engine = self.engine_for(batch.key)
        t0 = self._clock.now()
        results = [engine.run_serial(r.field) for r in batch.requests]
        return results, self._clock.now() - t0

    @property
    def engine_count(self) -> int:
        """Number of warm engines currently cached."""
        return len(self._engines)
