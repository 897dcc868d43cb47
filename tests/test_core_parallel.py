"""Tests for the process-parallel fan-out and the Hermitian fast path at
the pipeline level."""

import numpy as np
import pytest

from repro.core.local_conv import LocalConvolution, PencilOperator
from repro.core.parallel import convolve_subdomains_parallel, default_workers
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.dist import DistConfig, dist_run
from repro.dist.ledger import CATEGORY_EXCHANGE, alltoall_rounds
from repro.errors import ConfigurationError
from repro.kernels.gaussian import GaussianKernel
from repro.octree.sampling import build_box_pattern


@pytest.fixture
def setup32(rng):
    n, k = 32, 8
    spec = GaussianKernel(n=n, sigma=1.5).spectrum()
    field = rng.standard_normal((n, n, n))
    return n, k, spec, field


def _module_level_kernel(ix, iy):
    """Picklable on-the-fly kernel: pencils of a separable decay spectrum."""
    n = 32
    f = np.minimum(np.arange(n), n - np.arange(n)).astype(np.float64)
    gx = np.exp(-0.05 * f[ix] ** 2)
    gy = np.exp(-0.05 * f[iy] ** 2)
    gz = np.exp(-0.05 * f**2)
    return (gx * gy)[:, None] * gz[None, :]


class TestRunParallel:
    def test_bitwise_matches_serial(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2), batch=64)
        serial = pipe.run_serial(field)
        parallel = pipe.run_parallel(field, max_workers=2)
        assert np.array_equal(serial.approx, parallel.approx)
        assert serial.num_subdomains == parallel.num_subdomains
        assert serial.total_samples == parallel.total_samples
        assert serial.compressed_bytes == parallel.compressed_bytes
        for (s1, f1), (s2, f2) in zip(serial.per_domain, parallel.per_domain):
            assert s1.index == s2.index
            assert np.array_equal(f1.values, f2.values)

    def test_sparse_field_skips_zero_chunks(self, setup32):
        n, k, spec, _ = setup32
        field = np.zeros((n, n, n))
        field[8:24, 8:24, 8:24] = 1.0
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2), batch=64)
        res = pipe.run_parallel(field, max_workers=2)
        assert res.num_subdomains == 8
        assert np.array_equal(res.approx, pipe.run_serial(field).approx)

    def test_zero_field(self, setup32):
        n, k, spec, _ = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2))
        res = pipe.run_parallel(np.zeros((n, n, n)), max_workers=2)
        assert res.num_subdomains == 0
        assert np.all(res.approx == 0)

    def test_single_worker(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(4), batch=64)
        res = pipe.run_parallel(field, max_workers=1)
        assert np.array_equal(res.approx, pipe.run_serial(field).approx)

    def test_callable_kernel_ships_by_pickle(self, setup32):
        n, k, _spec, field = setup32
        pipe = LowCommConvolution3D(
            n, k, _module_level_kernel, SamplingPolicy.flat_rate(4), batch=64
        )
        res = pipe.run_parallel(field, max_workers=2)
        assert np.array_equal(res.approx, pipe.run_serial(field).approx)

    def test_unpicklable_kernel_rejected(self, setup32):
        n, k, _spec, field = setup32
        local_fn = lambda ix, iy: np.ones((len(ix), n))  # noqa: E731
        pipe = LowCommConvolution3D(n, k, local_fn, SamplingPolicy.flat_rate(4))
        with pytest.raises(ConfigurationError, match="picklable"):
            pipe.run_parallel(field, max_workers=2)

    def test_unpicklable_operator_rejected(self, setup32):
        n, k, _spec, field = setup32
        op = PencilOperator(lambda spec, ix, iy: spec)
        pipe = LowCommConvolution3D(n, k, op, SamplingPolicy.flat_rate(4))
        with pytest.raises(ConfigurationError, match="picklable"):
            pipe.run_parallel(field, max_workers=2)

    def test_bad_worker_count_rejected(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(4))
        with pytest.raises(ConfigurationError):
            pipe.run_parallel(field, max_workers=0)

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_fanout_returns_sorted_indices(self, setup32):
        n, k, spec, field = setup32
        pairs = convolve_subdomains_parallel(
            field, n, k, spec, SamplingPolicy.flat_rate(4), [5, 3, 11],
            max_workers=2,
        )
        assert [i for i, _v in pairs] == [3, 5, 11]


class TestRunDistributedParallel:
    def test_matches_serial_numerics(self, setup32):
        """Both in-process modes and loopback ranks are one computation:
        bitwise equal, with a single exchange round."""
        n, k, spec, field = setup32
        pipeline = LowCommConvolution3D(
            n, k, spec, SamplingPolicy.flat_rate(2), batch=64
        )
        dist = dist_run(
            DistConfig(
                n=n, k=k, sigma=1.5, policy="flat:2", batch=64, num_ranks=4,
                transport="local",
            ),
            field=field,
        )
        assert np.array_equal(dist.approx, pipeline.run_serial(field).approx)
        assert np.array_equal(
            dist.approx, pipeline.run_parallel(field, max_workers=2).approx
        )
        wires = [result.wire for result in dist.rank_results.values()]
        assert alltoall_rounds(wires, CATEGORY_EXCHANGE) == 1


class TestHermitianFastPath:
    def test_auto_detected_for_gaussian(self, setup32):
        n, k, spec, _field = setup32
        pipe = LowCommConvolution3D(n, k, spec)
        assert pipe.local.real_kernel is True

    def test_matches_complex_path(self, setup32):
        n, k, spec, field = setup32
        policy = SamplingPolicy.flat_rate(2)
        herm = LowCommConvolution3D(n, k, spec, policy, batch=64, real_kernel=True)
        comp = LowCommConvolution3D(n, k, spec, policy, batch=64, real_kernel=False)
        a = herm.run_serial(field).approx
        b = comp.run_serial(field).approx
        scale = float(np.max(np.abs(b)))
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10 * scale)

    def test_parallel_hermitian_matches_serial(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(
            n, k, spec, SamplingPolicy.flat_rate(2), batch=64, real_kernel=True
        )
        assert np.array_equal(
            pipe.run_parallel(field, max_workers=2).approx,
            pipe.run_serial(field).approx,
        )

    def test_rectangular_subdomain_matches_complex(self, rng):
        """Hermitian == complex on a non-cubic sub-domain (irregular
        partitions, paper §3.1) via an explicit box pattern."""
        n = 32
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        policy = SamplingPolicy.flat_rate(2)
        shape, corner = (8, 4, 16), (4, 12, 8)
        sub = rng.standard_normal(shape)
        pattern = build_box_pattern(n, shape, corner, r_near=1, r_mid=2, r_far=4)
        herm = LocalConvolution(n, spec, policy, real_kernel=True)
        comp = LocalConvolution(n, spec, policy, real_kernel=False)
        a = herm.convolve(sub, corner, pattern=pattern)
        b = comp.convolve(sub, corner, pattern=pattern)
        scale = float(np.max(np.abs(b.values)))
        np.testing.assert_allclose(
            a.values, b.values, rtol=1e-10, atol=1e-10 * scale
        )

    def test_real_kernel_claim_validated(self, setup32):
        n, k, spec, _field = setup32
        bad = spec.astype(np.complex128)
        bad[1, 2, 3] += 1j * np.max(np.abs(spec))
        with pytest.raises(ConfigurationError, match="real_kernel"):
            LowCommConvolution3D(n, k, bad, real_kernel=True)

    def test_complex_kernel_auto_detects_complex_path(self, setup32):
        n, k, spec, _field = setup32
        bad = spec.astype(np.complex128)
        bad[1, 2, 3] += 1j * np.max(np.abs(spec))
        pipe = LowCommConvolution3D(n, k, bad)
        assert pipe.local.real_kernel is False
