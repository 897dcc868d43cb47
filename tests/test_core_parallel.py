"""Tests that loopback ranks reproduce ``run_serial`` bitwise, and of the
Hermitian fast path at the pipeline level."""

import numpy as np
import pytest

from repro.core.local_conv import LocalConvolution
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


class TestRunDistributedParallel:
    def test_matches_serial_numerics(self, setup32):
        """``run_serial`` and loopback ranks are one computation: bitwise
        equal, with a single exchange round."""
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
