"""The paper's proof-of-concept kernel: a sharp centered Gaussian.

"The exact values of the Green's function depend on the stiffness tensor
for the material in question, but generally ... it has the same decaying
behavior.  A sharp Gaussian function fits the requirement.  The center of
the Gaussian should be at (N/2+1, N/2+1, N/2+1) [1-based] ... This makes
sure that the Fourier transform of the Gaussian is real-valued."  (§4)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.util.arrays import centered_gaussian
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class GaussianKernel:
    """Sharp Gaussian convolution kernel on an ``n^3`` periodic grid.

    Parameters
    ----------
    n:
        Grid edge length.
    sigma:
        Standard deviation in grid units; "sharp" means ``sigma << n`` so
        the kernel decays within a few sub-domain widths.
    """

    n: int
    sigma: float

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        if self.sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {self.sigma}")

    def spatial(self) -> np.ndarray:
        """The kernel in space, centered at ``n//2`` per axis (0-based) —
        the paper's ``(N/2+1)`` in 1-based Fortran indexing."""
        return centered_gaussian(self.n, self.sigma)

    def spectrum(self) -> np.ndarray:
        """The kernel's DFT, taken about the origin.

        The centered kernel is circularly shifted to the origin
        (``ifftshift``) before the transform.  Two reasons: (1) the shifted
        kernel is centrosymmetric about index 0, so the DFT is real-valued
        — the paper's requirement; (2) convolution then leaves the result
        *co-located* with the sub-domain, which is what the octree pattern
        of Fig 3 (dense around the sub-domain) assumes.  Transforming the
        centered kernel directly would also give a real spectrum but would
        translate every convolution output by N/2 per axis, putting the
        energy where the adaptive pattern is sparsest.

        The result is an owned, C-contiguous float64 array (``8 n^3``
        bytes): the real part is copied out so the complex transform it
        came from is freed, not kept alive behind a strided view.
        """
        return np.fft.fftn(np.fft.ifftshift(self.spatial())).real.copy()

    def convolve_dense(  # repro-lint: disable=DEAD001 oracle of test_kernels.py::TestGaussianKernel
        self, field: np.ndarray
    ) -> np.ndarray:
        """Exact circular convolution with a dense ``n^3`` field."""
        field = np.asarray(field)
        if field.shape != (self.n,) * 3:
            raise ConfigurationError(
                f"field shape {field.shape} != kernel grid ({self.n},)*3"
            )
        out = np.fft.ifftn(np.fft.fftn(field) * self.spectrum())
        return np.real(out)

    def decay_length(self) -> float:
        """e-folding radius of the kernel (``sigma * sqrt(2)``); the
        compression policy's notion of "spread"."""
        return float(self.sigma * np.sqrt(2.0))
