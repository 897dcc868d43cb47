"""Tests for elasticity tensors, Voigt mapping, and microstructures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShapeError
from repro.kernels.green_massif import LameParameters
from repro.massif.elasticity import (
    VOIGT_PAIRS,
    StiffnessField,
    cubic_stiffness,
    isotropic_stiffness,
    voigt_from_tensor,
)
from repro.massif.microstructure import sphere_inclusion, voronoi_polycrystal


def tensor_from_voigt(m):
    """The inverse of ``voigt_from_tensor`` for a symmetric 6x6 matrix: the
    rank-4 tensor with minor symmetries (the oracle of the round trips)."""
    c = np.zeros((3, 3, 3, 3))
    for a, (i, j) in enumerate(VOIGT_PAIRS):
        for b, (k, l) in enumerate(VOIGT_PAIRS):
            for p, q in {(i, j), (j, i)}:
                for r, s in {(k, l), (l, k)}:
                    c[p, q, r, s] = m[a, b]
    return c


class TestStiffnessTensors:
    def test_isotropic_symmetries(self):
        c = isotropic_stiffness(LameParameters(lam=1.2, mu=0.7))
        np.testing.assert_allclose(c, c.transpose(1, 0, 2, 3))
        np.testing.assert_allclose(c, c.transpose(0, 1, 3, 2))
        np.testing.assert_allclose(c, c.transpose(2, 3, 0, 1))

    def test_isotropic_components(self):
        lam, mu = 1.2, 0.7
        c = isotropic_stiffness(LameParameters(lam=lam, mu=mu))
        assert c[0, 0, 0, 0] == pytest.approx(lam + 2 * mu)
        assert c[0, 0, 1, 1] == pytest.approx(lam)
        assert c[0, 1, 0, 1] == pytest.approx(mu)

    def test_isotropic_is_cubic_special_case(self):
        lam, mu = 1.0, 0.5
        iso = isotropic_stiffness(LameParameters(lam=lam, mu=mu))
        cub = cubic_stiffness(c11=lam + 2 * mu, c12=lam, c44=mu)
        np.testing.assert_allclose(iso, cub, atol=1e-12)

    def test_cubic_stability_enforced(self):
        with pytest.raises(ConfigurationError):
            cubic_stiffness(c11=1.0, c12=2.0, c44=0.5)

    def test_isotropic_hydrostatic_response(self):
        lame = LameParameters(lam=2.0, mu=1.0)
        c = isotropic_stiffness(lame)
        eps = np.eye(3)
        sigma = np.einsum("ijkl,kl->ij", c, eps)
        bulk = lame.lam + 2 * lame.mu / 3
        np.testing.assert_allclose(sigma, 3 * bulk * np.eye(3), atol=1e-12)


class TestVoigt:
    def test_roundtrip_isotropic(self):
        c = isotropic_stiffness(LameParameters(lam=1.0, mu=0.5))
        np.testing.assert_allclose(tensor_from_voigt(voigt_from_tensor(c)), c)

    def test_voigt_shape(self):
        c = isotropic_stiffness(LameParameters(lam=1.0, mu=0.5))
        assert voigt_from_tensor(c).shape == (6, 6)

    def test_voigt_symmetric_for_symmetric_tensor(self):
        c = cubic_stiffness(3.0, 1.0, 0.8)
        m = voigt_from_tensor(c)
        np.testing.assert_allclose(m, m.T)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, seed):
        r = np.random.default_rng(seed)
        m = r.standard_normal((6, 6))
        m = 0.5 * (m + m.T)
        back = voigt_from_tensor(tensor_from_voigt(m))
        np.testing.assert_allclose(back, m, atol=1e-12)

    def test_bad_shapes(self):
        with pytest.raises(ShapeError):
            voigt_from_tensor(np.zeros((3, 3)))


class TestStiffnessField:
    def _two_phase(self, n=8):
        c0 = isotropic_stiffness(LameParameters(lam=1.0, mu=0.5))
        c1 = isotropic_stiffness(LameParameters(lam=2.0, mu=1.0))
        phase = sphere_inclusion(n, radius=n * 0.3)
        return StiffnessField(phase, [c0, c1]), c0, c1, phase

    def test_apply_respects_phases(self, rng):
        sf, c0, c1, phase = self._two_phase()
        n = sf.n
        eps = rng.standard_normal((3, 3, n, n, n))
        sigma = sf.apply(eps)
        # check a voxel of each phase against direct contraction
        for target_phase, c in [(0, c0), (1, c1)]:
            loc = tuple(np.argwhere(phase == target_phase)[0])
            expected = np.einsum("ijkl,kl->ij", c, eps[(...,) + loc][:, :])
            np.testing.assert_allclose(sigma[(...,) + loc][:, :], expected, atol=1e-12)

    def test_reference_lame_midpoint(self):
        sf, _c0, _c1, _ = self._two_phase()
        ref = sf.reference_lame()
        assert ref.mu == pytest.approx(0.75)
        assert ref.lam == pytest.approx(1.5)

    def test_mean_tensor_weights(self):
        sf, c0, c1, phase = self._two_phase()
        frac = phase.mean()
        mean = sf.mean_tensor()
        np.testing.assert_allclose(mean, (1 - frac) * c0 + frac * c1, atol=1e-12)

    def test_phase_label_out_of_range(self):
        c0 = isotropic_stiffness(LameParameters(lam=1.0, mu=0.5))
        with pytest.raises(ConfigurationError):
            StiffnessField(np.full((4, 4, 4), 3, dtype=np.int64), [c0])

    def test_float_phase_map_rejected(self):
        c0 = isotropic_stiffness(LameParameters(lam=1.0, mu=0.5))
        with pytest.raises(ConfigurationError):
            StiffnessField(np.zeros((4, 4, 4)), [c0])

    def test_apply_shape_check(self):
        sf, *_ = self._two_phase()
        with pytest.raises(ShapeError):
            sf.apply(np.zeros((3, 3, 4, 4, 4)))


class TestMicrostructures:
    def test_sphere_volume_fraction(self):
        phase = sphere_inclusion(32, radius=8)
        frac = phase.mean()
        expected = (4 / 3) * np.pi * 8**3 / 32**3
        assert frac == pytest.approx(expected, rel=0.1)

    def test_sphere_periodic_wrap(self):
        phase = sphere_inclusion(16, center=(0, 0, 0), radius=3)
        assert phase[0, 0, 0] == 1
        assert phase[15, 0, 0] == 1  # wraps around

    def test_voronoi_labels_all_grains(self):
        labels = voronoi_polycrystal(16, 5, rng=np.random.default_rng(2))
        assert set(np.unique(labels)) <= set(range(5))
        assert len(np.unique(labels)) >= 2
