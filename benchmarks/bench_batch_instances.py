"""§5.1 batch processing: many small convolution instances on one device.

"For smaller 3D grids, the method retains its advantage by batch
processing multiple 3D convolutions on a GPU, optimizing cluster usage
with fewer resources."  Measures the shared-state amortization of one
:class:`~repro.core.pipeline.LowCommConvolution3D` run over many
instances (what the serving executor's per-key engine does) and the
instances-per-device capacity argument at the paper's 256^3 size, each
instance sized by
:meth:`~repro.core.costmodel.MemoryFootprint.from_pattern`.
"""

import numpy as np
from conftest import emit

from repro.cluster.device import V100_16GB
from repro.core.costmodel import MemoryFootprint
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.kernels.gaussian import GaussianKernel


def test_batch_amortization(benchmark, rng=np.random.default_rng(0)):
    n, k = 32, 8
    spec = GaussianKernel(n=n, sigma=1.5).spectrum()
    fields = []
    for _ in range(4):
        f = np.zeros((n, n, n))
        f[8:24, 8:24, 8:24] = rng.standard_normal((16, 16, 16))
        fields.append(f)
    pipeline = LowCommConvolution3D(
        n, k, spec, SamplingPolicy.flat_rate(2), batch=512
    )

    results = benchmark(lambda: [pipeline.run_serial(f) for f in fields])
    patterns = {id(f.pattern) for r in results for _sub, f in r.per_domain}
    emit(
        f"{len(fields)} instances, {len(patterns)} patterns built "
        f"(shared across instances), "
        f"{sum(r.total_samples for r in results)} total samples"
    )
    assert len(patterns) <= (n // k) ** 3
    assert len(results) == len(fields)


def test_instances_per_gpu_at_256(benchmark):
    """The cluster-usage claim at the paper's 'smaller grid' size."""
    n, k = 256, 32

    def capacity():
        pattern = SamplingPolicy.flat_rate(8).pattern_for(n, k, (0, 0, 0))
        footprint = MemoryFootprint.from_pattern(pattern, k)
        ours = V100_16GB.memory_bytes // footprint.total_bytes
        dense = V100_16GB.memory_bytes // (2 * 16 * n**3)
        return ours, dense

    ours, dense = benchmark(capacity)
    emit(
        f"concurrent 256^3 instances on one V100-16GB: ours {ours}, "
        f"dense method {dense} ({ours / max(dense, 1):.1f}x more)"
    )
    assert ours > dense
