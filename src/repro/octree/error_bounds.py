"""A-priori interpolation error bounds (the paper's §5.3 future work).

"The error stems from sampling and interpolation.  Hence, error bounds for
popularly used interpolation methods derived with Taylor's theorem are
applicable.  Future work will rigorously derive error bounds as a function
of our design choices N, k and r."

This module carries out that program for the trilinear reconstruction:

- per cell with sample spacing ``h`` and a field whose pure second
  derivatives are bounded by ``M2`` on the cell, the classic multilinear
  Taylor bound is ``|f - I f| <= (3/8) h^2 M2``;
- for a convolution result ``g = kernel * u`` the Hessian of ``g`` is
  ``(Hess kernel) * u``, so ``M2`` on a cell at distance ``d`` from the
  sub-domain is bounded by ``|u|_1 x max_{|x| >= d} |Hess kernel(x)|`` —
  the kernel's radial Hessian profile evaluated at the cell's distance;
- summing cell bounds in quadrature gives an a-priori L2 bound as a
  function of (N, k, r-schedule, kernel), checked against measured errors
  in the test suite.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.octree.sampling import SamplingPattern
from repro.util.validation import check_cube


def trilinear_cell_bound(h: float, m2: float) -> float:
    """Taylor bound for trilinear interpolation on spacing-``h`` lattices:
    ``(3/8) h^2 M2`` (three axes, each contributing ``h^2 M2 / 8``);
    elementwise over arrays."""
    if np.any(np.asarray(h) < 0) or np.any(np.asarray(m2) < 0):
        raise ConfigurationError(f"h and M2 must be non-negative, got {(h, m2)}")
    return 0.375 * h * h * m2


def hessian_magnitude(field: np.ndarray) -> np.ndarray:
    """Pointwise Frobenius norm of the (periodic, finite-difference) Hessian."""
    field = check_cube(np.asarray(field, dtype=np.float64), "field")
    total = np.zeros_like(field)
    for i in range(3):
        d2 = np.roll(field, -1, axis=i) - 2 * field + np.roll(field, 1, axis=i)
        total += d2 * d2
    for i in range(3):
        for j in range(i + 1, 3):
            di = 0.5 * (np.roll(field, -1, axis=i) - np.roll(field, 1, axis=i))
            dij = 0.5 * (np.roll(di, -1, axis=j) - np.roll(di, 1, axis=j))
            total += 2 * dij * dij
    return np.sqrt(total)


def radial_hessian_envelope(
    kernel_spatial: np.ndarray, bins: int = 64
) -> Tuple[np.ndarray, np.ndarray]:
    """Monotone envelope of the kernel's Hessian magnitude vs radius.

    Returns ``(radii, envelope)`` where ``envelope[i]`` bounds
    ``|Hess kernel|`` at any radius ``>= radii[i]`` (computed as the
    suffix-max of the binned maxima, so it is a true envelope even when the
    raw profile is non-monotone).
    """
    kernel = check_cube(np.asarray(kernel_spatial, dtype=np.float64), "kernel")
    n = kernel.shape[0]
    hess = hessian_magnitude(kernel)
    center = np.unravel_index(int(np.argmax(np.abs(kernel))), kernel.shape)
    idx = np.arange(n)
    dx = np.minimum(np.abs(idx - center[0]), n - np.abs(idx - center[0])).reshape(n, 1, 1)
    dy = np.minimum(np.abs(idx - center[1]), n - np.abs(idx - center[1])).reshape(1, n, 1)
    dz = np.minimum(np.abs(idx - center[2]), n - np.abs(idx - center[2])).reshape(1, 1, n)
    radius = np.sqrt(dx**2.0 + dy**2.0 + dz**2.0).ravel()
    rmax = float(radius.max())
    edges = np.linspace(0.0, rmax + 1e-9, bins + 1)
    which = np.clip(np.digitize(radius, edges) - 1, 0, bins - 1)
    maxima = np.zeros(bins)
    np.maximum.at(maxima, which, hess.ravel())
    envelope = np.maximum.accumulate(maxima[::-1])[::-1]
    return edges[:-1], envelope


def pipeline_error_bound(
    pattern: SamplingPattern,
    kernel_spatial: np.ndarray,
    input_l1: float,
) -> float:
    """A-priori L2 bound on the reconstruction error of one sub-domain's
    compressed convolution.

    Parameters
    ----------
    pattern:
        The sampling pattern (carries the sub-domain geometry and the
        per-cell rates).
    kernel_spatial:
        The convolution kernel in space.
    input_l1:
        ``sum |u|`` over the sub-domain — Young's inequality turns the
        kernel Hessian envelope into a bound on the result's Hessian.

    Returns the L2 norm bound ``sqrt(sum_cells volume * bound^2)``.
    Conservative by construction (envelope + worst-case constants): the
    test suite checks measured errors stay below it, not that it is tight.
    """
    if input_l1 < 0:
        raise ConfigurationError(f"input_l1 must be >= 0, got {input_l1}")
    radii, envelope = radial_hessian_envelope(kernel_spatial)
    sub_lo = np.array(pattern.subdomain_corner, dtype=np.int64)
    sub_hi = sub_lo + pattern.subdomain_size - 1

    lossy = pattern.table[:, 3] > 1  # dense cells reconstruct exactly
    lo = pattern.table[lossy, :3].astype(np.int64)
    size = pattern.cell_sizes()[lossy].astype(np.int64)
    hi = lo + size[:, None] - 1
    # Chebyshev distance from each cell to the sub-domain box
    dist = np.maximum(np.maximum(sub_lo - hi, lo - sub_hi), 0).max(axis=1)
    m2 = input_l1 * np.interp(dist.astype(np.float64), radii, envelope)
    bound = trilinear_cell_bound(pattern.table[lossy, 3].astype(np.float64), m2)
    return float(np.sqrt(np.sum(size**3 * bound * bound)))
