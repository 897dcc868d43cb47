"""The Gamma convolution step of the MASSIF inner loop.

Steps 2-5 of Algorithm 1 in one call: FFT the stress tensor field, contract
with ``Gamma_hat`` (computed on the fly, Eq 3), inverse FFT — the strain
*correction* ``Delta eps = ifft(Gamma_hat : fft(sigma))``.  This dense
version is the reference against which the low-communication Algorithm 2
solver is validated.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.kernels.green_massif import LameParameters, apply_gamma_hat


def gamma_convolve_dense(sigma: np.ndarray, lame: LameParameters) -> np.ndarray:
    """``Delta eps_kl(x) = ifft( Gamma_hat_klmn(xi) : fft(sigma_mn) )``.

    ``sigma`` has shape ``(3, 3, n, n, n)`` (real); returns the real strain
    correction of the same shape.  The zero mode is annihilated (mean
    strain is prescribed separately in the scheme).
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 5 or sigma.shape[:2] != (3, 3):
        raise ShapeError(f"sigma must be (3, 3, n, n, n), got {sigma.shape}")
    sigma_hat = np.fft.fftn(sigma, axes=(2, 3, 4))
    deps_hat = apply_gamma_hat(sigma_hat, lame)
    return np.real(np.fft.ifftn(deps_hat, axes=(2, 3, 4)))
