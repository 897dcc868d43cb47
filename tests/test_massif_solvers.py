"""Tests for the MASSIF solvers: Algorithm 1, Algorithm 2, convergence."""

import numpy as np
import pytest

from repro.core.policy import SamplingPolicy
from repro.errors import ConvergenceError, ShapeError
from repro.kernels.green_massif import LameParameters
from repro.massif.convergence import equilibrium_residual, strain_change
from repro.massif.elasticity import StiffnessField, isotropic_stiffness
from repro.massif.green_operator import gamma_convolve_dense
from repro.massif.lowcomm_solver import LowCommMassifSolver
from repro.massif.microstructure import sphere_inclusion
from repro.massif.solver import MassifSolver


@pytest.fixture
def two_phase():
    n = 16
    c0 = isotropic_stiffness(LameParameters.from_young_poisson(1.0, 0.3))
    c1 = isotropic_stiffness(LameParameters.from_young_poisson(5.0, 0.3))
    return StiffnessField(sphere_inclusion(n, radius=5), [c0, c1])


@pytest.fixture
def macro_strain():
    e = np.zeros((3, 3))
    e[0, 0] = 0.01
    return e


class TestConvergenceDiagnostics:
    def test_constant_stress_is_equilibrated(self):
        sigma = np.ones((3, 3, 8, 8, 8))
        assert equilibrium_residual(sigma) < 1e-12

    def test_oscillating_stress_not_equilibrated(self, rng):
        sigma = rng.standard_normal((3, 3, 8, 8, 8))
        assert equilibrium_residual(sigma) > 0.1

    def test_strain_change(self):
        a = np.ones((3, 3, 4, 4, 4))
        assert strain_change(a, a) == 0.0
        assert strain_change(1.1 * a, a) == pytest.approx(0.1)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            equilibrium_residual(np.zeros((3, 3, 4, 4)))
        with pytest.raises(ShapeError):
            strain_change(np.zeros(3), np.zeros(4))


class TestGammaConvolveDense:
    def test_zero_stress_gives_zero(self):
        lame = LameParameters(lam=1.0, mu=1.0)
        out = gamma_convolve_dense(np.zeros((3, 3, 4, 4, 4)), lame)
        assert np.all(out == 0)

    def test_constant_stress_gives_zero(self):
        """Gamma annihilates the mean (xi = 0 mode)."""
        lame = LameParameters(lam=1.0, mu=1.0)
        out = gamma_convolve_dense(np.ones((3, 3, 4, 4, 4)), lame)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)


class TestAlgorithm1:
    def test_homogeneous_converges_immediately(self, macro_strain):
        n = 8
        c0 = isotropic_stiffness(LameParameters.from_young_poisson(1.0, 0.3))
        sf = StiffnessField(np.zeros((n, n, n), dtype=np.int64), [c0])
        rep = MassifSolver(sf, tol=1e-10).solve(macro_strain)
        assert rep.converged
        assert rep.iterations == 0
        expected = np.einsum("ijkl,kl->ij", c0, macro_strain)
        np.testing.assert_allclose(rep.effective_stress(), expected, atol=1e-12)

    def test_two_phase_converges(self, two_phase, macro_strain):
        rep = MassifSolver(two_phase, tol=1e-4, max_iter=200).solve(macro_strain)
        assert rep.converged
        assert rep.iterations > 0
        assert rep.residuals[-1] < 1e-4

    def test_mean_strain_prescribed(self, two_phase, macro_strain):
        rep = MassifSolver(two_phase, tol=1e-4, max_iter=200).solve(macro_strain)
        np.testing.assert_allclose(rep.strain.mean(axis=(2, 3, 4)), macro_strain, atol=1e-10)

    def test_residuals_decrease_overall(self, two_phase, macro_strain):
        rep = MassifSolver(two_phase, tol=1e-4, max_iter=200).solve(macro_strain)
        assert rep.residuals[-1] < rep.residuals[0]

    def test_effective_stress_between_bounds(self, two_phase, macro_strain):
        """Homogenized stiffness must lie between the phase moduli (here
        expressed on the dominant stress component)."""
        rep = MassifSolver(two_phase, tol=1e-4, max_iter=200).solve(macro_strain)
        c0 = two_phase.phase_tensors[0]
        c1 = two_phase.phase_tensors[1]
        s0 = np.einsum("ijkl,kl->ij", c0, macro_strain)[0, 0]
        s1 = np.einsum("ijkl,kl->ij", c1, macro_strain)[0, 0]
        eff = rep.effective_stress()[0, 0]
        assert min(s0, s1) < eff < max(s0, s1)

    def test_macro_strain_symmetrized(self, two_phase):
        e = np.zeros((3, 3))
        e[0, 1] = 0.02  # unsymmetric input
        rep = MassifSolver(two_phase, tol=1e-3, max_iter=200).solve(e)
        np.testing.assert_allclose(
            rep.strain.mean(axis=(2, 3, 4)), 0.5 * (e + e.T), atol=1e-10
        )

    def test_nonconvergence_raises(self, two_phase, macro_strain):
        with pytest.raises(ConvergenceError):
            MassifSolver(two_phase, tol=1e-12, max_iter=2).solve(macro_strain)

    def test_raise_on_fail_false(self, two_phase, macro_strain):
        rep = MassifSolver(
            two_phase, tol=1e-12, max_iter=2, raise_on_fail=False
        ).solve(macro_strain)
        assert not rep.converged

    def test_macro_shape_check(self, two_phase):
        with pytest.raises(ShapeError):
            MassifSolver(two_phase).solve(np.zeros((2, 2)))


class TestAlgorithm2:
    def test_lossless_matches_alg1_exactly(self, two_phase, macro_strain):
        """r = 1: the low-communication loop is bit-compatible with Alg 1."""
        rep1 = MassifSolver(two_phase, tol=1e-4, max_iter=100).solve(macro_strain)
        rep2 = LowCommMassifSolver(
            two_phase,
            k=8,
            policy=SamplingPolicy.flat_rate(1),
            tol=1e-4,
            max_iter=100,
            batch=64,
        ).solve(macro_strain)
        assert rep2.iterations == rep1.iterations
        np.testing.assert_allclose(rep2.strain, rep1.strain, atol=1e-8)

    def test_lossy_homogenized_output_close(self, two_phase, macro_strain):
        """r = 2: effective stress within ~1% of Alg 1 (paper's 'did not
        largely impact convergence')."""
        rep1 = MassifSolver(two_phase, tol=1e-4, max_iter=100).solve(macro_strain)
        rep2 = LowCommMassifSolver(
            two_phase,
            k=8,
            policy=SamplingPolicy.flat_rate(2),
            tol=1e-4,
            max_iter=100,
            batch=64,
            stall_window=8,
            raise_on_fail=False,
        ).solve(macro_strain)
        eff1 = rep1.effective_stress()[0, 0]
        eff2 = rep2.effective_stress()[0, 0]
        assert abs(eff2 - eff1) / abs(eff1) < 0.01

    def test_lossy_stalls_at_error_floor(self, two_phase, macro_strain):
        rep = LowCommMassifSolver(
            two_phase,
            k=8,
            policy=SamplingPolicy.flat_rate(2),
            tol=1e-8,
            max_iter=100,
            batch=64,
            stall_window=8,
            raise_on_fail=False,
        ).solve(macro_strain)
        assert rep.stalled
        assert min(rep.residuals) < 0.01  # floor well below initial residual

    @pytest.mark.parametrize("n,k", [(16, 8), (8, 4)])
    def test_lossless_gamma_evaluation_matches_alg1(self, n, k, rng):
        """One Gamma evaluation on the staged transform (half spectrum, the
        contraction per pencil batch, r = 1) is Alg 1's dense one."""
        c0 = isotropic_stiffness(LameParameters.from_young_poisson(1.0, 0.3))
        c1 = isotropic_stiffness(LameParameters.from_young_poisson(5.0, 0.3))
        stiffness = StiffnessField(sphere_inclusion(n, radius=n // 3), [c0, c1])
        sigma = rng.standard_normal((3, 3, n, n, n))
        sigma = sigma + sigma.transpose(1, 0, 2, 3, 4)
        sigma[:, :, :k, :k, :k] = 0.0  # one all-zero block: skipped, not wrong
        exact = MassifSolver(stiffness)._gamma_correction(sigma)
        solver = LowCommMassifSolver(
            stiffness, k=k, policy=SamplingPolicy.flat_rate(1), batch=40
        )
        assert len(solver._convolve_components(sigma)) == (n // k) ** 3 - 1
        np.testing.assert_allclose(
            solver._gamma_correction(sigma), exact, rtol=0, atol=1e-12
        )
