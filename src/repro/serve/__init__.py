"""repro.serve — a batching convolution service with admission control.

The paper's batch-processing argument ("many instances of 3D FFTs per
iteration ... optimizing cluster usage", §5.1/conclusion) is a *serving*
workload: a stream of independent convolution requests whose congruent
members can share sampling patterns and pruned-FFT plans.  This package
is the subsystem that accepts such a stream and drives the fast
primitives (:class:`~repro.core.batch.BatchConvolver`,
:class:`~repro.fft.pruned_plan.PlanCache`) at high utilization:

- :class:`ConvolutionServer` — the front door: bounded queue,
  reject-on-full admission control, per-request deadlines, retries;
- :class:`BatchingScheduler` — dynamic batching by compatibility key
  under ``max_batch_size`` / ``max_wait`` triggers;
- :class:`BatchExecutor` — warm per-key engines on the serial or
  process-parallel execution paths;
- :class:`PoolBackend` — the dist-backed executor: batches routed onto
  standing :class:`~repro.pool.RankPool` meshes by consistent hashing
  (:class:`ConsistentHashRing`), with generation fencing, transparent
  checkpoint-handoff failover, and per-tenant wire attribution;
- :mod:`repro.serve.loadgen` — a deterministic synthetic load generator
  behind ``python -m repro serve-bench``.

Everything reads time through an injectable
:class:`~repro.util.clock.Clock`, so scheduler behaviour is fully testable
with a :class:`~repro.util.clock.ManualClock` — no sleeps — and counts
into a :class:`~repro.util.metrics.MetricsRegistry` whose snapshot is
plain JSON.  Neither lives here: the rank runtime and the pool read the
same clock and count on the same registry without importing this
package.
"""

from repro.serve.dist_backend import (
    ConsistentHashRing,
    PoolBackend,
    compat_key_string,
)
from repro.serve.executor import BatchExecutor
from repro.serve.loadgen import TenantSpec
from repro.serve.queue import BoundedRequestQueue
from repro.serve.request import (
    DEFAULT_TENANT,
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
    "DEFAULT_TENANT",
    "TenantSpec",
    "Batch",
    "BatchingScheduler",
    "BatchExecutor",
    "PoolBackend",
    "ConsistentHashRing",
    "compat_key_string",
    "BoundedRequestQueue",
]
