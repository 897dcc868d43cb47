"""Benchmarks for the extension features built beyond the paper's POC:
content-adaptive decomposition (the paper's "irregular partitions" remark),
worker batch processing across ranks (§3.1/§5.1), the wire
serialization of compressed fields, and the a-priori error bound (§5.3
future work).
"""

from dataclasses import replace

import numpy as np
from conftest import emit

from repro.cluster.cost import makespan, pruned_conv_time
from repro.cluster.device import V100_32GB
from repro.cluster.memory import MemoryTracker
from repro.core.adaptive import AdaptiveConvolution
from repro.core.decomposition import DomainDecomposition
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy, parse_policy
from repro.core.reference import reference_convolve, reference_subdomain_convolve
from repro.core.local_conv import LocalConvolution
from repro.dist import DistConfig, dist_run
from repro.kernels.gaussian import GaussianKernel
from repro.octree.error_bounds import pipeline_error_bound
from repro.octree.interpolate import reconstruct_dense
from repro.octree.serialize import deserialize_compressed, serialize_compressed
from repro.util.arrays import l2_relative_error


def test_adaptive_vs_regular_on_sparse_input(benchmark):
    """Content-adaptive decomposition skips zero regions entirely."""
    n = 32
    spec = GaussianKernel(n=n, sigma=1.5).spectrum()
    field = np.zeros((n, n, n))
    field[0:8, 0:8, 0:8] = 1.0  # 1.6% occupancy

    conv = AdaptiveConvolution(
        n, spec, SamplingPolicy.flat_rate(2), k_max=8, batch=256
    )
    res = benchmark(conv.run, field)
    exact = reference_convolve(field, spec)
    err = l2_relative_error(res.approx, exact)
    emit(
        f"adaptive: {len(res.subdomains)} chunk(s), skipped "
        f"{100 * res.skipped_volume / n**3:.1f}% of the volume, err {err:.4f}"
    )
    assert len(res.subdomains) == 1
    assert err < 0.05


def test_worker_pool_batching(benchmark):
    """Multiple chunks batch-processed per rank; modelled makespan scales
    with the chunk counts the ranks report."""
    n, k = 16, 4
    rng = np.random.default_rng(0)
    d = DomainDecomposition(n, k)
    field = np.zeros((n, n, n))
    for i in range(16):
        field[d.subdomain(i).slices()] = rng.standard_normal((k, k, k))
    config = DistConfig(n=n, k=k, sigma=1.2, policy="flat:2", batch=64)
    chunk_s = pruned_conv_time(
        V100_32GB, n, k, parse_policy(config.policy).average_rate(), batch=64
    )

    def compute_makespan(ranks):
        report = dist_run(replace(config, num_ranks=ranks), field=field)
        chunks = [r.num_chunks for r in report.rank_results.values()]
        return makespan(chunks, chunk_s, [0.0] * ranks), chunks

    compute, chunks = benchmark(compute_makespan, 4)
    memory = MemoryTracker(capacity_bytes=V100_32GB.memory_bytes)
    LowCommConvolution3D(
        n, k, GaussianKernel(n=n, sigma=1.2).spectrum(),
        SamplingPolicy.flat_rate(2), batch=64, memory=memory,
    ).run_serial(field)
    emit(
        f"4 workers x {chunks} chunks, modeled compute makespan "
        f"{compute * 1e3:.2f} ms, peak device memory "
        f"{memory.peak_bytes / 1e6:.2f} MB"
    )
    assert chunks == [4, 4, 4, 4]
    assert compute == compute_makespan(1)[0] / 4


def test_wire_serialization_roundtrip(benchmark):
    n, k = 64, 16
    spec = GaussianKernel(n=n, sigma=2.0).spectrum()
    pol = SamplingPolicy(r_near=2, r_mid=8, r_far=16, min_cell=2)
    cf = LocalConvolution(n, spec, pol, batch=n * n).convolve(
        np.ones((k, k, k)), (24, 24, 24)
    )

    def roundtrip():
        return deserialize_compressed(serialize_compressed(cf))

    back = benchmark(roundtrip)
    payload_mb = len(serialize_compressed(cf)) / 1e6
    emit(
        f"wire payload {payload_mb:.2f} MB vs dense {8 * n**3 / 1e6:.2f} MB "
        f"({8 * n**3 / (payload_mb * 1e6):.1f}x)"
    )
    np.testing.assert_array_equal(back.values, cf.values)
    assert payload_mb * 1e6 < 8 * n**3


def test_apriori_error_bound(benchmark):
    """§5.3 future work: the Taylor bound dominates the measured error."""
    n, k = 32, 8
    kernel = GaussianKernel(n=n, sigma=2.0)
    spec = kernel.spectrum()
    sub = np.ones((k, k, k))
    corner = (12, 12, 12)
    pol = SamplingPolicy.flat_rate(4)
    pattern = pol.pattern_for(n, k, corner)

    bound = benchmark(
        pipeline_error_bound, pattern, kernel.spatial(), float(k**3)
    )
    cf = LocalConvolution(n, spec, pol, batch=256).convolve(
        sub, corner, pattern=pattern
    )
    measured = float(
        np.linalg.norm(
            reconstruct_dense(cf) - reference_subdomain_convolve(sub, corner, spec)
        )
    )
    emit(f"measured L2 error {measured:.3e} <= a-priori bound {bound:.3e} "
         f"(slack {bound / max(measured, 1e-300):.1f}x)")
    assert measured <= bound
