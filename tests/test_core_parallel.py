"""Tests that loopback ranks reproduce ``run_serial`` bitwise, and of the
Hermitian half-spectrum path at the pipeline level."""

import numpy as np
import pytest

from repro.core.local_conv import LocalConvolution
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.core.reference import reference_subdomain_convolve
from repro.dist import DistConfig, dist_run
from repro.dist.ledger import CATEGORY_EXCHANGE, alltoall_rounds
from repro.errors import ConfigurationError
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.properties import spectrum_is_hermitian_real
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
    """The half-spectrum path is the only one: it is exact against the
    dense reference, and a kernel it cannot run exactly is refused."""

    @staticmethod
    def _assert_exact_at_samples(block, corner, spec, compressed):
        exact = reference_subdomain_convolve(block, corner, spec)
        sc = compressed.pattern.sample_coords
        scale = float(np.max(np.abs(exact)))
        np.testing.assert_allclose(
            compressed.values,
            exact[sc[:, 0], sc[:, 1], sc[:, 2]],
            rtol=1e-10,
            atol=1e-10 * scale,
        )

    def test_auto_detected_for_gaussian(self, setup32):
        n, k, spec, _field = setup32
        assert spectrum_is_hermitian_real(spec)
        pipe = LowCommConvolution3D(n, k, spec)
        assert pipe.local.real_kernel is True

    def test_matches_reference(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2), batch=64)
        result = pipe.run_serial(field)
        assert result.num_subdomains == (n // k) ** 3
        for sub, compressed in result.per_domain:
            block = pipe.decomposition.extract(field, sub)
            self._assert_exact_at_samples(block, sub.corner, spec, compressed)

    def test_rectangular_subdomain_matches_reference(self, rng):
        """Exact on a non-cubic sub-domain (irregular partitions, paper
        §3.1) via an explicit box pattern."""
        n = 32
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        policy = SamplingPolicy.flat_rate(2)
        shape, corner = (8, 4, 16), (4, 12, 8)
        sub = rng.standard_normal(shape)
        pattern = build_box_pattern(n, shape, corner, r_near=1, r_mid=2, r_far=4)
        got = LocalConvolution(n, spec, policy).convolve(sub, corner, pattern=pattern)
        self._assert_exact_at_samples(sub, corner, spec, got)

    @pytest.mark.parametrize("defect", ["imaginary", "asymmetric"])
    def test_non_hermitian_spectrum_rejected(self, setup32, defect):
        n, k, spec, _field = setup32
        if defect == "imaginary":
            bad = spec.astype(np.complex128)
            bad[1, 2, 3] += 1j * np.max(np.abs(spec))
        else:
            bad = spec.copy()
            bad[1, 2, 3] += 1e-3 * np.max(np.abs(spec))
        assert not spectrum_is_hermitian_real(bad)
        with pytest.raises(ConfigurationError, match="§3.1"):
            LowCommConvolution3D(n, k, bad)

    def test_non_hermitian_spectrum_rejected_by_dist_run(self, setup32):
        """``dist_run`` refuses the kernel before any rank starts."""
        n, k, spec, field = setup32
        bad = spec.astype(np.complex128)
        bad[1, 2, 3] += 1j * np.max(np.abs(spec))
        config = DistConfig(n=n, k=k, policy="flat:2", num_ranks=2, transport="local")
        with pytest.raises(ConfigurationError, match="§3.1"):
            dist_run(config, field=field, spectrum=bad)
