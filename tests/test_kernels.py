"""Tests for the kernels package: Gaussian, Poisson, Gamma, properties."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.kernels.freq import frequency_grid, frequency_norm2
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.green_massif import (
    SYM_COMPONENTS,
    LameParameters,
    apply_gamma_generic,
    apply_gamma_hat,
    gamma_hat_tensor,
    gamma_pencil_operator,
)
from repro.kernels.poisson import PoissonKernel
from repro.kernels.properties import (
    decay_profile,
    effective_support_radius,
    fit_power_law_decay,
    spectrum_is_hermitian_real,
)
from repro.massif.elasticity import isotropic_stiffness


class TestFrequencyGrid:
    def test_shapes_broadcastable(self):
        xi_x, xi_y, xi_z = frequency_grid(8)
        assert xi_x.shape == (8, 1, 1)
        assert (xi_x + xi_y + xi_z).shape == (8, 8, 8)

    def test_integer_frequencies(self):
        xi_x, _, _ = frequency_grid(8)
        np.testing.assert_array_equal(
            xi_x.ravel(), [0, 1, 2, 3, -4, -3, -2, -1]
        )

    def test_norm2_zero_at_origin(self):
        n2 = frequency_norm2(8)
        assert n2[0, 0, 0] == 0
        assert (n2.ravel()[1:] > 0).all()


class TestGaussianKernel:
    def test_spectrum_is_real(self):
        g = GaussianKernel(n=16, sigma=1.5)
        spec_complex = np.fft.fftn(np.fft.ifftshift(g.spatial()))
        assert np.abs(spec_complex.imag).max() < 1e-9 * np.abs(spec_complex).max()

    @pytest.mark.parametrize("n", [16, 32])
    def test_spectrum_is_an_owned_float64_cube(self, n):
        """``8 n^3`` bytes held, not a strided view of the complex transform."""
        g = GaussianKernel(n=n, sigma=1.5)
        spec = g.spectrum()
        assert spec.dtype == np.float64
        assert spec.flags.c_contiguous and spec.base is None
        assert spec.nbytes == 8 * n**3
        expected = np.real(np.fft.fftn(np.fft.ifftshift(g.spatial())))
        assert spec.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_spatial_centered(self):
        g = GaussianKernel(n=16, sigma=2.0)
        assert np.unravel_index(np.argmax(g.spatial()), (16,) * 3) == (8, 8, 8)

    def test_convolution_no_shift(self):
        """Convolution with the kernel leaves an impulse in place (smeared)."""
        n = 16
        g = GaussianKernel(n=n, sigma=1.0)
        field = np.zeros((n, n, n))
        field[5, 6, 7] = 1.0
        out = g.convolve_dense(field)
        assert np.unravel_index(np.argmax(out), out.shape) == (5, 6, 7)

    def test_convolve_preserves_mass(self):
        n = 16
        g = GaussianKernel(n=n, sigma=1.0)
        field = np.zeros((n, n, n))
        field[3, 3, 3] = 2.0
        out = g.convolve_dense(field)
        assert out.sum() == pytest.approx(2.0 * g.spatial().sum())

    def test_decay_length(self):
        assert GaussianKernel(n=16, sigma=2.0).decay_length() == pytest.approx(
            2.0 * np.sqrt(2)
        )

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigurationError):
            GaussianKernel(n=16, sigma=-1.0)

    def test_convolve_shape_check(self):
        g = GaussianKernel(n=16, sigma=1.0)
        with pytest.raises(ConfigurationError):
            g.convolve_dense(np.zeros((8, 8, 8)))


class TestPoissonKernel:
    def test_single_mode_solution(self):
        n = 32
        pk = PoissonKernel(n=n, length=1.0)
        x = np.arange(n) / n
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        f = np.sin(2 * np.pi * X)
        u = pk.solve(f)
        np.testing.assert_allclose(u, f / (2 * np.pi) ** 2, atol=1e-12)

    def test_solution_zero_mean(self, rng):
        pk = PoissonKernel(n=16)
        u = pk.solve(rng.standard_normal((16, 16, 16)))
        assert abs(u.mean()) < 1e-12

    def test_laplacian_roundtrip(self, rng):
        """-lap(solve(f)) == f - mean(f) via spectral laplacian."""
        n = 16
        pk = PoissonKernel(n=n, length=1.0)
        f = rng.standard_normal((n, n, n))
        u = pk.solve(f)
        norm2 = frequency_norm2(n) * (2 * np.pi) ** 2
        lap_u = np.real(np.fft.ifftn(-norm2 * np.fft.fftn(u)))
        np.testing.assert_allclose(-lap_u, f - f.mean(), atol=1e-9)

    def test_spectrum_real_decaying(self):
        spec = PoissonKernel(n=16).spectrum()
        assert spec[0, 0, 0] == 0.0
        assert spec[1, 0, 0] > spec[2, 0, 0] > spec[4, 0, 0]

    def test_spatial_decays_like_1_over_r(self):
        g = PoissonKernel(n=64, length=1.0).spatial()
        # periodic Green's function ~ 1/(4 pi r): ratio at r=2 vs r=8
        assert g[2, 0, 0] > 3 * g[8, 0, 0]

    def test_shape_check(self):
        with pytest.raises(ConfigurationError):
            PoissonKernel(n=8).solve(np.zeros((4, 4, 4)))


class TestLameParameters:
    def test_from_young_poisson(self):
        lame = LameParameters.from_young_poisson(1.0, 0.25)
        assert lame.mu == pytest.approx(0.4)
        assert lame.lam == pytest.approx(0.4)

    def test_rejects_bad_poisson(self):
        with pytest.raises(ConfigurationError):
            LameParameters.from_young_poisson(1.0, 0.5)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ConfigurationError):
            LameParameters(lam=1.0, mu=0.0)


class TestGammaOperator:
    def test_apply_matches_tensor_contraction(self, rng):
        lame = LameParameters.from_young_poisson(1.0, 0.3)
        n = 8
        G = gamma_hat_tensor(n, lame)
        tau = rng.standard_normal((3, 3, n, n, n)) + 1j * rng.standard_normal(
            (3, 3, n, n, n)
        )
        ref = np.einsum("ijklxyz,klxyz->ijxyz", G, tau)
        ref[:, :, 0, 0, 0] = 0
        np.testing.assert_allclose(apply_gamma_hat(tau, lame), ref, atol=1e-10)

    def test_projection_identity(self, rng):
        """Gamma0 : (C0 : sym grad u) == sym grad u for any displacement
        (off the Nyquist planes, which the discrete operator annihilates
        by convention — see the green_massif module docstring)."""
        lame = LameParameters.from_young_poisson(1.0, 0.3)
        C0 = isotropic_stiffness(lame)
        n = 8
        u_hat = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal(
            (3, n, n, n)
        )
        u_hat[:, n // 2, :, :] = 0  # clear Nyquist planes
        u_hat[:, :, n // 2, :] = 0
        u_hat[:, :, :, n // 2] = 0
        f = np.fft.fftfreq(n, 1 / n)
        xi = [f.reshape(n, 1, 1), f.reshape(1, n, 1), f.reshape(1, 1, n)]
        eps = np.empty((3, 3, n, n, n), dtype=complex)
        for i in range(3):
            for j in range(3):
                eps[i, j] = 0.5j * (xi[i] * u_hat[j] + xi[j] * u_hat[i])
        sig = np.einsum("ijkl,klxyz->ijxyz", C0, eps)
        eps0 = eps.copy()
        eps0[:, :, 0, 0, 0] = 0
        np.testing.assert_allclose(apply_gamma_hat(sig, lame), eps0, atol=1e-10)

    def test_projector_property_spatial(self, rng):
        """Gamma0 C0 Gamma0 == Gamma0 through the full real-field pipeline —
        the property whose violation (pre-Nyquist-fix) shifted the
        accelerated scheme's fixed point."""
        lame = LameParameters.from_young_poisson(1.0, 0.3)
        C0 = isotropic_stiffness(lame)
        n = 8
        tau = rng.standard_normal((3, 3, n, n, n))

        def gamma(x):
            return np.real(
                np.fft.ifftn(
                    apply_gamma_hat(np.fft.fftn(x, axes=(2, 3, 4)), lame),
                    axes=(2, 3, 4),
                )
            )

        e1 = gamma(tau)
        e2 = gamma(np.einsum("ijkl,klxyz->ijxyz", C0, e1))
        np.testing.assert_allclose(e2, e1, atol=1e-10)

    def test_output_symmetric(self, rng):
        lame = LameParameters.from_young_poisson(2.0, 0.2)
        n = 4
        tau = rng.standard_normal((3, 3, n, n, n)) + 0j
        out = apply_gamma_hat(tau, lame)
        np.testing.assert_allclose(out, out.transpose(1, 0, 2, 3, 4), atol=1e-12)

    def test_generic_pencil_layout(self, rng):
        """Pencil-batched evaluation matches the dense-grid evaluation
        (including the Nyquist-plane convention when ``n`` is passed)."""
        lame = LameParameters.from_young_poisson(1.0, 0.3)
        n = 8
        tau = rng.standard_normal((3, 3, n, n, n)) + 1j * rng.standard_normal(
            (3, 3, n, n, n)
        )
        dense = apply_gamma_hat(tau, lame)
        f = np.fft.fftfreq(n, 1 / n)
        # pencils along z for rows (ix=2, iy=3)
        pencil_tau = tau[:, :, 2, 3, :].reshape(3, 3, 1, n)
        xi = (
            np.full((1, 1), f[2]),
            np.full((1, 1), f[3]),
            f.reshape(1, n),
        )
        got = apply_gamma_generic(pencil_tau, xi, lame, n=n)
        np.testing.assert_allclose(got[:, :, 0, :], dense[:, :, 2, 3, :], atol=1e-10)

    def test_nyquist_planes_annihilated(self, rng):
        """The operator maps Nyquist-plane modes to zero (even grids)."""
        lame = LameParameters.from_young_poisson(1.0, 0.3)
        n = 8
        tau = rng.standard_normal((3, 3, n, n, n)) + 0j
        out = apply_gamma_hat(tau, lame)
        assert np.abs(out[:, :, n // 2, :, :]).max() == 0.0
        assert np.abs(out[:, :, :, n // 2, :]).max() == 0.0
        assert np.abs(out[:, :, :, :, n // 2]).max() == 0.0

    def test_gamma_homogeneous_degree_zero(self):
        """Gamma(xi) == Gamma(2 xi): depends on direction only."""
        lame = LameParameters.from_young_poisson(1.0, 0.3)
        tau = np.ones((3, 3, 1, 1, 1), dtype=complex)
        xi1 = (np.array([[[1.0]]]), np.array([[[2.0]]]), np.array([[[3.0]]]))
        xi2 = tuple(2.0 * x for x in xi1)
        np.testing.assert_allclose(
            apply_gamma_generic(tau, xi1, lame),
            apply_gamma_generic(tau, xi2, lame),
            atol=1e-12,
        )

    def test_shape_validation(self):
        lame = LameParameters(lam=1.0, mu=1.0)
        with pytest.raises(ShapeError):
            apply_gamma_hat(np.zeros((2, 2, 4, 4, 4)), lame)
        with pytest.raises(ShapeError):  # the field part must be a cube
            apply_gamma_hat(np.zeros((3, 3, 4, 4, 6)), lame)

    def test_dense_form_is_the_generic_form_on_the_grid(self, rng):
        lame = LameParameters.from_young_poisson(1.0, 0.3)
        n = 8
        tau = rng.standard_normal((3, 3, n, n, n)) + 1j * rng.standard_normal(
            (3, 3, n, n, n)
        )
        assert np.array_equal(
            apply_gamma_hat(tau, lame),
            apply_gamma_generic(tau, frequency_grid(n), lame, n=n),
        )

    @pytest.mark.parametrize("n", [8, 9, 12])
    def test_pencil_operator_on_half_spectrum_matches_dense(self, n, rng):
        """The staged transform's pointwise step — six symmetric components
        of the n//2+1 non-redundant x rows, pencil batch by pencil batch —
        against the dense-grid oracle (even n: Nyquist planes included)."""
        lame = LameParameters.from_young_poisson(2.0, 0.25)
        sigma = rng.standard_normal((3, 3, n, n, n))
        sigma = sigma + sigma.transpose(1, 0, 2, 3, 4)
        sigma_hat = np.fft.fftn(sigma, axes=(2, 3, 4))
        dense = apply_gamma_hat(sigma_hat, lame)
        i, j = (list(axis) for axis in zip(*SYM_COMPONENTS))
        rows = n // 2 + 1
        apply = gamma_pencil_operator(lame, n)
        ix, iy = np.divmod(np.arange(rows * n), n)
        for start in range(0, rows * n, 10):  # batches that straddle rows
            sl = slice(start, start + 10)
            tau = sigma_hat[i, j][:, ix[sl], iy[sl], :]
            got = apply(tau, ix[sl], iy[sl])
            assert got.shape == tau.shape
            np.testing.assert_allclose(
                got, dense[i, j][:, ix[sl], iy[sl], :], atol=1e-12
            )
            if n % 2 == 0:
                assert np.abs(got[:, ix[sl] == n // 2]).max(initial=0.0) == 0.0


class TestProperties:
    def test_gaussian_real_spectrum(self):
        spatial = GaussianKernel(n=16, sigma=2.0).spatial()
        assert spectrum_is_hermitian_real(np.fft.fftn(spatial))
        assert spectrum_is_hermitian_real(GaussianKernel(n=16, sigma=2.0).spectrum())

    def test_shifted_kernel_not_real(self, rng):
        g = np.roll(GaussianKernel(n=16, sigma=2.0).spatial(), 3, axis=0)
        assert not spectrum_is_hermitian_real(np.fft.fftn(g))

    def test_decay_profile_monotone_for_gaussian(self):
        radii, means = decay_profile(GaussianKernel(n=32, sigma=2.0).spatial())
        peak_bin = int(np.argmax(means))
        tail = means[peak_bin:][means[peak_bin:] > 0]
        assert (np.diff(tail) <= 1e-12).all()

    def test_power_law_fit_poisson(self):
        """Poisson Green's function decays ~1/r: exponent near 1."""
        g = PoissonKernel(n=64).spatial()
        p = fit_power_law_decay(g, r_min=2.0)
        assert 0.5 < p < 2.0

    def test_gaussian_decays_faster_than_poisson(self):
        pg = fit_power_law_decay(PoissonKernel(n=32).spatial(), r_min=2.0)
        gg = fit_power_law_decay(
            GaussianKernel(n=32, sigma=1.5).spatial(), r_min=2.0
        )
        assert gg > pg

    def test_effective_support_grows_with_sigma(self):
        r1 = effective_support_radius(GaussianKernel(n=32, sigma=1.0).spatial())
        r2 = effective_support_radius(GaussianKernel(n=32, sigma=3.0).spatial())
        assert r2 > r1

    def test_effective_support_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            effective_support_radius(np.ones((4, 4, 4)), energy_fraction=0.0)

    def test_zero_kernel_support(self):
        assert effective_support_radius(np.zeros((4, 4, 4))) == 0.0
