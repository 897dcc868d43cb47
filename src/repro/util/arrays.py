"""Array helpers: padding, sub-cube embedding, error norms, grid utilities.

These are the small primitives the convolution pipeline is built from.  They
follow the HPC idioms from the project guides: operate on views where
possible, avoid temporaries in inner loops, and keep everything vectorized.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.util.validation import check_positive_int


def embed_subcube(
    sub: np.ndarray, grid_shape: Sequence[int], corner: Sequence[int]
) -> np.ndarray:
    """Embed sub-array ``sub`` into a zero grid of ``grid_shape`` at ``corner``.

    This materializes the "sub-domain embedded in a larger volume of zeros"
    that Step 2 of the paper's method avoids ever forming; it exists as the
    dense reference for testing the pruned path.
    """
    sub = np.asarray(sub)
    grid_shape = tuple(int(s) for s in grid_shape)
    corner = tuple(int(c) for c in corner)
    if len(grid_shape) != sub.ndim or len(corner) != sub.ndim:
        raise ShapeError("grid_shape/corner rank mismatch with sub-array")
    for c, k, n in zip(corner, sub.shape, grid_shape):
        if c < 0 or c + k > n:
            raise ShapeError(
                f"sub-array of shape {sub.shape} at corner {corner} "
                f"does not fit in grid {grid_shape}"
            )
    out = np.zeros(grid_shape, dtype=sub.dtype)
    out[tuple(slice(c, c + k) for c, k in zip(corner, sub.shape))] = sub
    return out


def l2_relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """Relative L2 error ``||approx - exact|| / ||exact||`` (paper §5.3)."""
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if approx.shape != exact.shape:
        raise ShapeError(f"shape mismatch {approx.shape} vs {exact.shape}")
    denom = float(np.linalg.norm(exact.ravel()))
    if denom == 0.0:
        return float(np.linalg.norm(approx.ravel()))
    return float(np.linalg.norm((approx - exact).ravel())) / denom


def centered_gaussian(n: int, sigma: float, dtype=np.float64) -> np.ndarray:
    """Sharp Gaussian kernel centered at ``(n/2, n/2, n/2)`` on an n³ grid.

    The paper's proof-of-concept kernel (§4, "Choice of convolution kernel"):
    centering at ``N/2`` index (0-based; the paper's ``N/2+1`` is 1-based
    Fortran indexing) makes the kernel symmetric under the FFT's circular
    reflection so its DFT is real-valued, matching the Green's function
    property the method exploits.
    """
    n = check_positive_int(n, "n")
    if sigma <= 0:
        raise ShapeError(f"sigma must be positive, got {sigma}")
    coords = np.arange(n, dtype=np.float64) - n // 2
    x, y, z = np.meshgrid(coords, coords, coords, indexing="ij", sparse=True)
    r2 = x * x + y * y + z * z
    return np.exp(-r2 / (2.0 * sigma * sigma)).astype(dtype)
