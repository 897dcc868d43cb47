"""repro.serve — a batching convolution service with admission control.

The paper's batch-processing argument ("many instances of 3D FFTs per
iteration ... optimizing cluster usage", §5.1/conclusion) is a *serving*
workload: a stream of independent convolution requests whose congruent
members can share sampling patterns and pruned-FFT plans.  This package
is the subsystem that accepts such a stream and drives the fast
primitives (:class:`~repro.core.pipeline.LowCommConvolution3D` on the
process-wide plan table, :func:`~repro.fft.pruned_plan.plan_for`) at high
utilization:

- :class:`ConvolutionServer` — the front door: bounded queue,
  reject-on-full admission control, per-request deadlines, retries;
- :class:`BatchingScheduler` — dynamic batching by compatibility key
  under ``max_batch_size`` / ``max_wait`` triggers;
- :class:`BatchExecutor` — one warm pipeline per compatibility key,
  each request one ``run_serial`` on one core;
- :class:`PoolBackend` — the dist-backed executor and the way onto many
  cores: every batch runs as jobs on one standing
  :class:`~repro.pool.RankPool` mesh, with generation fencing and
  transparent checkpoint-handoff failover;
- :mod:`repro.serve.loadgen` — a deterministic synthetic load generator
  behind ``python -m repro serve-bench``.

Executors only turn a batch into results; the server marks requests
RUNNING and DONE and records the serving metrics, once, for both.

Everything reads time through an injectable
:class:`~repro.util.clock.Clock`, so scheduler behaviour is fully testable
with a :class:`~repro.util.clock.ManualClock` — no sleeps — and counts
into a :class:`~repro.util.metrics.MetricsRegistry` whose snapshot is
plain JSON.  Neither lives here: the rank runtime and the pool read the
same clock and count on the same registry without importing this
package.
"""

from repro.serve.dist_backend import PoolBackend
from repro.serve.executor import BatchExecutor
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import (
    ConvolutionRequest,
    RequestHandle,
    RequestState,
    TERMINAL_STATES,
)
from repro.serve.scheduler import Batch, BatchingScheduler
from repro.serve.server import ConvolutionServer, ServerConfig

__all__ = [
    "ConvolutionServer",
    "ServerConfig",
    "ConvolutionRequest",
    "RequestHandle",
    "RequestState",
    "TERMINAL_STATES",
    "Batch",
    "BatchingScheduler",
    "BatchExecutor",
    "PoolBackend",
    "BoundedRequestQueue",
]
