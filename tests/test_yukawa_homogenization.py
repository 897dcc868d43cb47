"""Tests for the Yukawa kernel, homogenization, and the distributed runner."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.cost import makespan, pruned_conv_time
from repro.cluster.device import V100_16GB, V100_32GB
from repro.cluster.network import Link
from repro.core.distributed_runner import (
    compute_amplification,
    min_feasible_ranks_traditional,
    parallel_efficiency,
    strong_scaling_curve,
)
from repro.core.policy import SamplingPolicy
from repro.core.pipeline import LowCommConvolution3D
from repro.core.reference import reference_convolve
from repro.dist import DistConfig, dist_run
from repro.dist.ledger import alltoall_rounds
from repro.errors import ConfigurationError
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.green_massif import LameParameters
from repro.kernels.properties import spectrum_is_hermitian_real
from repro.kernels.yukawa import YukawaKernel
from repro.massif.elasticity import StiffnessField, isotropic_stiffness
from repro.massif.homogenization import (
    bounds_respected,
    homogenize,
    reuss_bound,
    voigt_bound,
)
from repro.massif.microstructure import sphere_inclusion
from repro.massif.solver import MassifSolver
from repro.util.arrays import l2_relative_error


class TestYukawaKernel:
    def test_spectrum_real_positive_bounded(self):
        spec = YukawaKernel(n=16, kappa=4.0).spectrum()
        assert (spec > 0).all()
        assert spec.max() == spec[0, 0, 0] == pytest.approx(1.0 / 16.0)

    def test_spatial_decays_monotonically(self):
        g = YukawaKernel(n=32, kappa=8.0).spatial()
        assert g[0, 0, 0] > g[2, 0, 0] > g[4, 0, 0] > g[8, 0, 0] > 0

    def test_faster_decay_than_poisson(self):
        from repro.kernels.poisson import PoissonKernel

        yk = YukawaKernel(n=32, kappa=12.0).spatial()
        pk = PoissonKernel(n=32).spatial()
        # normalized tail ratio: screened kernel has relatively less tail
        assert yk[8, 0, 0] / yk[1, 0, 0] < pk[8, 0, 0] / pk[1, 0, 0]

    def test_solve_single_mode(self):
        n = 16
        yk = YukawaKernel(n=n, kappa=3.0, length=1.0)
        x = np.arange(n) / n
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        f = np.cos(2 * np.pi * X)
        u = yk.solve(f)
        np.testing.assert_allclose(u, f / ((2 * np.pi) ** 2 + 9.0), atol=1e-12)

    def test_real_spectrum_property(self):
        assert spectrum_is_hermitian_real(YukawaKernel(n=16, kappa=4.0).spectrum())

    def test_pipeline_compatibility(self):
        """Yukawa solves run through the compressed pipeline."""
        n, k = 32, 8
        yk = YukawaKernel(n=n, kappa=10.0)
        f = np.zeros((n, n, n))
        f[8:16, 8:16, 8:16] = 1.0
        pipe = LowCommConvolution3D(
            n, k, yk.spectrum(), SamplingPolicy.flat_rate(2), batch=256
        )
        res = pipe.run_serial(f)
        assert l2_relative_error(res.approx, yk.solve(f)) < 0.05

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            YukawaKernel(n=16, kappa=0.0)
        with pytest.raises(ConfigurationError):
            YukawaKernel(n=16, kappa=1.0).solve(np.zeros((4, 4, 4)))

    def test_decay_length(self):
        assert YukawaKernel(n=16, kappa=5.0).decay_length() == pytest.approx(0.2)


@pytest.fixture(scope="module")
def two_phase_12():
    c0 = isotropic_stiffness(LameParameters.from_young_poisson(1.0, 0.3))
    c1 = isotropic_stiffness(LameParameters.from_young_poisson(4.0, 0.3))
    return StiffnessField(sphere_inclusion(12, radius=4), [c0, c1])


@pytest.fixture(scope="module")
def homogenized(two_phase_12):
    solver = MassifSolver(two_phase_12, tol=1e-4, max_iter=300)
    return homogenize(solver)


class TestHomogenization:
    def test_effective_tensor_symmetric(self, homogenized):
        assert homogenized.is_symmetric

    def test_between_voigt_reuss_bounds(self, homogenized, two_phase_12):
        assert bounds_respected(homogenized.c_eff_voigt, two_phase_12, tol=1e-3)

    def test_stiffer_than_matrix(self, homogenized):
        matrix_c11 = isotropic_stiffness(
            LameParameters.from_young_poisson(1.0, 0.3)
        )[0, 0, 0, 0]
        assert homogenized.c_eff_voigt[0, 0] > matrix_c11

    def test_homogeneous_material_recovers_exactly(self):
        c0 = isotropic_stiffness(LameParameters.from_young_poisson(2.0, 0.25))
        sf = StiffnessField(np.zeros((8, 8, 8), dtype=np.int64), [c0])
        res = homogenize(MassifSolver(sf, tol=1e-8))
        np.testing.assert_allclose(res.c_eff_voigt, voigt_bound(sf), atol=1e-8)
        assert all(i == 0 for i in res.iterations)

    def test_cubic_symmetry_of_centered_sphere(self, homogenized):
        c = homogenized.c_eff_voigt
        assert c[0, 0] == pytest.approx(c[1, 1], rel=0.02)
        assert c[3, 3] == pytest.approx(c[4, 4], rel=0.02)

    def test_bounds_ordering(self, two_phase_12):
        v = voigt_bound(two_phase_12)
        r = reuss_bound(two_phase_12)
        assert np.linalg.eigvalsh(v - r).min() >= -1e-9

    def test_amplitude_validation(self, two_phase_12):
        with pytest.raises(ConfigurationError):
            homogenize(MassifSolver(two_phase_12), amplitude=0.0)


class TestDistributedRunner:
    """The pipeline on loopback ranks, priced by the makespan model."""

    @pytest.fixture(scope="class")
    def setup(self):
        n, k = 16, 4
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        field = np.zeros((n, n, n))
        field[4:12, 4:12, 4:12] = 1.0
        config = DistConfig(
            n=n, k=k, sigma=1.2, policy="flat:2", batch=64, transport="local"
        )
        return config, field, spec

    @staticmethod
    def _run(config, field, ranks):
        return dist_run(replace(config, num_ranks=ranks), field=field)

    def test_result_correct(self, setup):
        config, field, spec = setup
        rep = self._run(config, field, 4)
        exact = reference_convolve(field, spec)
        # tiny k=4 sub-domains leave a proportionally larger interpolated
        # shell; this test checks distributed correctness, not accuracy
        assert l2_relative_error(rep.approx, exact) < 0.1

    def test_matches_serial_pipeline_exactly(self, setup):
        config, field, spec = setup
        rep = self._run(config, field, 4)
        serial = LowCommConvolution3D(
            config.n, config.k, spec, SamplingPolicy.flat_rate(2), batch=64
        ).run_serial(field)
        assert np.array_equal(rep.approx, serial.approx)

    def test_zero_alltoalls(self, setup):
        config, field, _ = setup
        rep = self._run(config, field, 4)
        assert alltoall_rounds([r.wire for r in rep.rank_results.values()]) == 0

    def test_makespan_improves_with_ranks(self, setup):
        config, field, _ = setup
        chunk_s = pruned_conv_time(V100_32GB, config.n, config.k, 2.0, batch=64)
        link = Link()

        def modelled(ranks):
            results = self._run(config, field, ranks).rank_results.values()
            return makespan(
                [r.num_chunks for r in results],
                chunk_s,
                [link.ledger_time(r.wire, "exchange") for r in results],
            )

        assert modelled(4) < modelled(1)

    def test_bad_rank_count(self, setup):
        config, field, _ = setup
        with pytest.raises(ConfigurationError):
            self._run(config, field, 0)


class TestScalingModels:
    def test_ours_scales_linearly(self):
        pts = strong_scaling_curve(1024, 128, 8, [1, 8, 64])
        eff_ours, _ = parallel_efficiency(pts)
        assert eff_ours > 0.9

    def test_traditional_saturates(self):
        pts = strong_scaling_curve(1024, 128, 8, [64, 16384])
        _, eff_trad = parallel_efficiency(pts)
        assert eff_trad < 0.9

    def test_compute_amplification_formula(self):
        assert compute_amplification(1024, 128) == pytest.approx(512 * 2 / 3)
        assert compute_amplification(1024, 512) < compute_amplification(1024, 128)

    def test_min_feasible_ranks(self):
        assert min_feasible_ranks_traditional(2048, V100_32GB) >= 8
        assert min_feasible_ranks_traditional(256, V100_32GB) == 1
        assert min_feasible_ranks_traditional(2048, V100_16GB) >= (
            min_feasible_ranks_traditional(2048, V100_32GB)
        )

    def test_efficiency_needs_two_points(self):
        pts = strong_scaling_curve(256, 64, 4, [4])
        with pytest.raises(ConfigurationError):
            parallel_efficiency(pts)
