"""Tests for the Eyre-Milton accelerated scheme and Mandel notation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.green_massif import LameParameters
from repro.massif.accelerated import (
    EyreMiltonSolver,
    reference_lame_eyre_milton,
)
from repro.massif.elasticity import (
    StiffnessField,
    isotropic_stiffness,
    mandel_from_tensor,
    tensor_from_mandel,
)
from repro.massif.microstructure import sphere_inclusion
from repro.massif.solver import MassifSolver


def _composite(n=16, contrast=20.0):
    c0 = isotropic_stiffness(LameParameters.from_young_poisson(1.0, 0.3))
    c1 = isotropic_stiffness(LameParameters.from_young_poisson(contrast, 0.3))
    return StiffnessField(sphere_inclusion(n, radius=5), [c0, c1])


@pytest.fixture
def macro():
    e = np.zeros((3, 3))
    e[0, 0] = 0.01
    return e


class TestMandelNotation:
    def test_roundtrip(self):
        c = isotropic_stiffness(LameParameters(lam=1.3, mu=0.7))
        np.testing.assert_allclose(tensor_from_mandel(mandel_from_tensor(c)), c)

    def test_contraction_is_matvec(self, rng):
        """Mandel matrix times Mandel vector == tensor double contraction."""
        from repro.massif.elasticity import VOIGT_PAIRS, _MANDEL_WEIGHTS

        c = isotropic_stiffness(LameParameters(lam=1.0, mu=0.5))
        eps = rng.standard_normal((3, 3))
        eps = 0.5 * (eps + eps.T)
        sigma_tensor = np.einsum("ijkl,kl->ij", c, eps)
        eps_m = np.array(
            [eps[i, j] * w for (i, j), w in zip(VOIGT_PAIRS, _MANDEL_WEIGHTS)]
        )
        sigma_m = mandel_from_tensor(c) @ eps_m
        expected = np.array(
            [sigma_tensor[i, j] * w for (i, j), w in zip(VOIGT_PAIRS, _MANDEL_WEIGHTS)]
        )
        np.testing.assert_allclose(sigma_m, expected, atol=1e-12)

    def test_composition_is_matmul(self):
        """(A:B) in tensor form == Mandel(A) @ Mandel(B): the isometry the
        accelerated scheme's inverse relies on."""
        a = isotropic_stiffness(LameParameters(lam=1.0, mu=0.5))
        b = isotropic_stiffness(LameParameters(lam=0.3, mu=1.2))
        ab_tensor = np.einsum("ijmn,mnkl->ijkl", a, b)
        np.testing.assert_allclose(
            mandel_from_tensor(ab_tensor),
            mandel_from_tensor(a) @ mandel_from_tensor(b),
            atol=1e-12,
        )


class TestEyreMilton:
    def test_same_solution_as_basic(self, macro):
        sf = _composite(contrast=20.0)
        basic = MassifSolver(sf, tol=1e-6, max_iter=2000).solve(macro)
        em = EyreMiltonSolver(
            sf, reference=reference_lame_eyre_milton(sf), tol=1e-6, max_iter=2000
        ).solve(macro)
        err = np.linalg.norm(em.strain - basic.strain) / np.linalg.norm(basic.strain)
        assert err < 1e-3
        assert em.effective_stress()[0, 0] == pytest.approx(
            basic.effective_stress()[0, 0], rel=1e-4
        )

    @pytest.mark.parametrize("contrast", [100.0, 1000.0])
    def test_accelerates_at_high_contrast(self, macro, contrast):
        sf = _composite(contrast=contrast)
        basic = MassifSolver(sf, tol=1e-4, max_iter=20000).solve(macro)
        em = EyreMiltonSolver(
            sf, reference=reference_lame_eyre_milton(sf), tol=1e-4, max_iter=20000
        ).solve(macro)
        assert em.iterations < basic.iterations / 2

    def test_homogeneous_immediate(self, macro):
        c0 = isotropic_stiffness(LameParameters.from_young_poisson(1.0, 0.3))
        sf = StiffnessField(np.zeros((8, 8, 8), dtype=np.int64), [c0])
        rep = EyreMiltonSolver(sf, tol=1e-10).solve(macro)
        assert rep.converged
        assert rep.iterations == 0

    def test_mean_strain_preserved(self, macro):
        sf = _composite()
        rep = EyreMiltonSolver(
            sf, reference=reference_lame_eyre_milton(sf), tol=1e-5, max_iter=2000
        ).solve(macro)
        np.testing.assert_allclose(rep.strain.mean(axis=(2, 3, 4)), macro, atol=1e-6)

    def test_geometric_reference(self):
        sf = _composite(contrast=100.0)
        ref = reference_lame_eyre_milton(sf)
        mus = [0.3846153846, 38.46153846]  # mu of E=1 and E=100 at nu=0.3
        assert ref.mu == pytest.approx(np.sqrt(mus[0] * mus[1]), rel=1e-6)

    def test_stall_window_supported(self, macro):
        sf = _composite()
        rep = EyreMiltonSolver(
            sf,
            reference=reference_lame_eyre_milton(sf),
            tol=1e-15,
            max_iter=500,
            stall_window=10,
            raise_on_fail=False,
        ).solve(macro)
        assert rep.stalled or rep.converged
