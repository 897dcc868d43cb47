"""Batch execution: cached per-key pipelines, each request one run.

The executor owns one warm
:class:`~repro.core.pipeline.LowCommConvolution3D` per compatibility key
(an LRU-bounded cache): every batch for a key reuses that pipeline's
pattern cache and pruned-FFT plans, which is the entire throughput case
for batched serving — congruent requests stop paying the per-request
fixed costs a naive one-request-at-a-time service rebuilds every time.

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

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import ConvolutionResult, LowCommConvolution3D
from repro.errors import ConfigurationError
from repro.serve.request import CompatKey
from repro.serve.scheduler import Batch
from repro.util.clock import Clock

#: Test seam: called as ``fault_hook(batch, attempt)`` before execution;
#: raising simulates a worker failure for that attempt.
FaultHook = Callable[[Batch, int], None]


class BatchExecutor:
    """Run scheduled batches on cached per-key convolution pipelines."""

    def __init__(
        self,
        kernels: Dict[str, np.ndarray],
        clock: Clock,
        max_engines: int = 8,
        fault_hook: Optional[FaultHook] = None,
    ):
        if max_engines < 1:
            raise ConfigurationError(f"need max_engines >= 1, got {max_engines}")
        self._kernels = kernels
        self._clock = clock
        self.max_engines = max_engines
        self.fault_hook = fault_hook
        self._engines: "OrderedDict[CompatKey, LowCommConvolution3D]" = (
            OrderedDict()
        )

    # -- engine cache --------------------------------------------------------
    def engine_for(self, key: CompatKey) -> LowCommConvolution3D:
        """The warm pipeline for ``key`` (built on first use, LRU-evicted)."""
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            return engine
        n, k, kernel_name, policy, batch = key
        spectrum = self._kernels.get(kernel_name)
        if spectrum is None:
            raise ConfigurationError(
                f"kernel {kernel_name!r} is not registered with the server"
            )
        engine = LowCommConvolution3D(n, k, spectrum, policy, batch=batch)
        while len(self._engines) >= self.max_engines:
            self._engines.popitem(last=False)
        self._engines[key] = engine
        return engine

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
