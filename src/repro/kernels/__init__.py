"""Convolution kernels with Green's-function-like properties.

The paper's method applies to kernels that (1) decay rapidly in space and
(2) have real-valued spectra — the signature of Green's functions of
self-adjoint operators.  This package provides:

- :mod:`repro.kernels.gaussian` — the sharp centered Gaussian the paper's
  proof-of-concept uses in place of a material-specific Green's function.
- :mod:`repro.kernels.poisson` — the Poisson Green's function
  ``1 / (4 pi |x|)`` (paper Eq 5).
- :mod:`repro.kernels.green_massif` — the MASSIF Green's operator
  ``Gamma_hat`` in closed Fourier form (paper Eq 3), applied on the fly.
- :mod:`repro.kernels.properties` — kernel property analyzers (real
  spectrum, symmetry, decay fit, effective support) that justify the
  compression policy.
- :mod:`repro.kernels.freq` — frequency-grid helpers.
"""

from repro.kernels.freq import frequency_grid, frequency_norm2
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.green_massif import (
    LameParameters,
    apply_gamma_hat,
    gamma_hat_tensor,
)
from repro.kernels.poisson import PoissonKernel
from repro.kernels.yukawa import YukawaKernel
from repro.kernels.properties import (
    decay_profile,
    effective_support_radius,
    fit_power_law_decay,
    spectrum_is_hermitian_real,
)

__all__ = [
    "frequency_grid",
    "frequency_norm2",
    "GaussianKernel",
    "PoissonKernel",
    "YukawaKernel",
    "LameParameters",
    "gamma_hat_tensor",
    "apply_gamma_hat",
    "decay_profile",
    "effective_support_radius",
    "fit_power_law_decay",
    "spectrum_is_hermitian_real",
]
