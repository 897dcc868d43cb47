"""Exact dense FFT convolution — the ground truth (paper's FFTW baseline).

"A CPU node is used to verify correctness by comparison with FFTW" (§4).
Here the role of FFTW is played by a dense circular convolution over
:mod:`numpy.fft`, one 1D sweep per axis in x, y, z order; all
approximation errors in the library are measured against these functions.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.util.arrays import embed_subcube


def _sweep3(x: np.ndarray, transform: Callable[..., np.ndarray]) -> np.ndarray:
    """``transform`` along x, then y, then z.  Not :func:`numpy.fft.fftn`,
    which walks the axes last-first and so rounds differently."""
    out = np.asarray(x, dtype=np.complex128)
    for axis in range(3):
        out = transform(out, axis=axis)
    return out


def reference_convolve(field: np.ndarray, kernel_spectrum: np.ndarray) -> np.ndarray:
    """Exact circular convolution: ``ifft3(fft3(field) * spectrum)``."""
    field = np.asarray(field, dtype=np.float64)
    spec = np.asarray(kernel_spectrum)
    if field.shape != spec.shape or field.ndim != 3:
        raise ShapeError(
            f"field shape {field.shape} and spectrum shape {spec.shape} "
            "must be the same rank-3 shape"
        )
    out = _sweep3(_sweep3(field, np.fft.fft) * spec, np.fft.ifft)
    return np.real(out)


def reference_subdomain_convolve(
    sub: np.ndarray, corner: Sequence[int], kernel_spectrum: np.ndarray
) -> np.ndarray:
    """Exact convolution of a sub-domain embedded in zeros (the dense cube
    the paper's method approximates per worker)."""
    spec = np.asarray(kernel_spectrum)
    n = spec.shape[0]
    dense = embed_subcube(np.asarray(sub, dtype=np.float64), (n, n, n), corner)
    return reference_convolve(dense, spec)
