"""Kernel property analyzers.

The method's applicability test (paper §3.1): the kernel must decay
rapidly (so the convolution tail compresses) and have a real spectrum
(symmetry).  These analyzers quantify both so the sampling policy can be
derived from the kernel instead of hand-picked — "the user parameterizes
the sampling strategy ... with the spread, decay rate of the Green's
function and the size of the sub-domain" (§4).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_cube


def spectrum_is_real(kernel_spatial: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether the kernel's DFT is real to tolerance (relative to its peak)."""
    kernel = check_cube(np.asarray(kernel_spatial, dtype=np.float64), "kernel")
    spec = np.fft.fftn(kernel)
    peak = float(np.max(np.abs(spec)))
    if peak == 0.0:
        return True
    return float(np.max(np.abs(spec.imag))) <= tol * peak


def spectrum_is_hermitian_real(spectrum: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether a dense ``n^3`` *spectrum* supports the Hermitian fast path.

    The half-spectrum pipeline is exact when convolution with the kernel
    maps real fields to real fields, i.e. when the spectrum is Hermitian:
    ``K[-f] = conj(K[f])``.  For the real-valued spectra the paper targets
    that reduces to index centrosymmetry, which is what is checked here
    (alongside the imaginary part being negligible).  This is the
    spectrum-side counterpart of :func:`spectrum_is_real`, for callers who
    hold the spectrum rather than the spatial kernel.
    """
    spec = check_cube(np.asarray(spectrum), "spectrum")
    peak = float(np.max(np.abs(spec)))
    if peak == 0.0:
        return True
    if np.iscomplexobj(spec) and float(np.max(np.abs(spec.imag))) > tol * peak:
        return False
    real = np.ascontiguousarray(spec.real, dtype=np.float64)
    reflected = np.roll(real[::-1, ::-1, ::-1], 1, axis=(0, 1, 2))
    return float(np.max(np.abs(real - reflected))) <= tol * peak


def decay_profile(
    kernel_spatial: np.ndarray, center: Tuple[int, int, int] | None = None, bins: int = 32
) -> Tuple[np.ndarray, np.ndarray]:
    """Radially averaged magnitude profile ``(radii, mean |g|)``.

    The raw material for decay fits; ``center`` defaults to the magnitude
    peak.
    """
    kernel = check_cube(np.asarray(kernel_spatial, dtype=np.float64), "kernel")
    n = kernel.shape[0]
    if center is None:
        center = np.unravel_index(int(np.argmax(np.abs(kernel))), kernel.shape)
    cx, cy, cz = (int(c) for c in center)
    idx = np.arange(n)
    # Periodic (minimum-image) distance per axis.
    dx = np.minimum(np.abs(idx - cx), n - np.abs(idx - cx)).reshape(n, 1, 1)
    dy = np.minimum(np.abs(idx - cy), n - np.abs(idx - cy)).reshape(1, n, 1)
    dz = np.minimum(np.abs(idx - cz), n - np.abs(idx - cz)).reshape(1, 1, n)
    radius = np.sqrt(dx**2.0 + dy**2.0 + dz**2.0)
    rmax = float(radius.max())
    edges = np.linspace(0.0, rmax, bins + 1)
    which = np.digitize(radius.ravel(), edges) - 1
    which = np.clip(which, 0, bins - 1)
    mag = np.abs(kernel).ravel()
    sums = np.bincount(which, weights=mag, minlength=bins)
    counts = np.bincount(which, minlength=bins)
    means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, means


def fit_power_law_decay(
    kernel_spatial: np.ndarray, r_min: float = 1.0
) -> float:
    """Fit ``|g(r)| ~ r^(-p)`` and return the exponent ``p``.

    Green's functions of second-order elliptic operators in 3D decay like
    ``1/r`` (Poisson) to ``1/r^3`` (elasticity Gamma); a large fitted ``p``
    certifies rapid decay.  Fit is least-squares in log-log space over
    bins with ``r >= r_min`` and positive mean magnitude.
    """
    radii, means = decay_profile(kernel_spatial)
    mask = (radii >= r_min) & (means > 0)
    if int(mask.sum()) < 2:
        raise ConfigurationError("not enough bins with signal to fit a decay law")
    x = np.log(radii[mask])
    y = np.log(means[mask])
    slope, _intercept = np.polyfit(x, y, 1)
    return float(-slope)


def effective_support_radius(
    kernel_spatial: np.ndarray, energy_fraction: float = 0.99
) -> float:
    """Smallest radius containing ``energy_fraction`` of the kernel energy.

    Feeds the sampling policy: rates may increase aggressively beyond this
    radius because the convolution tail carries almost no energy there.
    """
    if not 0.0 < energy_fraction <= 1.0:
        raise ConfigurationError(
            f"energy_fraction must be in (0, 1], got {energy_fraction}"
        )
    kernel = check_cube(np.asarray(kernel_spatial, dtype=np.float64), "kernel")
    n = kernel.shape[0]
    center = np.unravel_index(int(np.argmax(np.abs(kernel))), kernel.shape)
    idx = np.arange(n)
    dx = np.minimum(np.abs(idx - center[0]), n - np.abs(idx - center[0])).reshape(n, 1, 1)
    dy = np.minimum(np.abs(idx - center[1]), n - np.abs(idx - center[1])).reshape(1, n, 1)
    dz = np.minimum(np.abs(idx - center[2]), n - np.abs(idx - center[2])).reshape(1, 1, n)
    radius = np.sqrt(dx**2.0 + dy**2.0 + dz**2.0).ravel()
    energy = (kernel.ravel() ** 2).astype(np.float64)
    order = np.argsort(radius)
    cumulative = np.cumsum(energy[order])
    total = cumulative[-1]
    if total == 0.0:
        return 0.0
    cut = np.searchsorted(cumulative, energy_fraction * total)
    cut = min(cut, len(order) - 1)
    return float(radius[order][cut])
