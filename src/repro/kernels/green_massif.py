"""The MASSIF Green's operator ``Gamma_hat`` in closed Fourier form (Eq 3).

For an isotropic reference medium with Lame coefficients ``lambda0, mu0``
(Moulinec & Suquet 1998, the paper's [21]):

    Gamma_hat_ijkl(xi) =
        (delta_ki xi_l xi_j + delta_li xi_k xi_j +
         delta_kj xi_l xi_i + delta_lj xi_k xi_i) / (4 mu0 |xi|^2)
      - ((lambda0 + mu0) / (mu0 (lambda0 + 2 mu0)))
         * xi_i xi_j xi_k xi_l / |xi|^4

``Gamma_hat`` is homogeneous of degree 0 in ``xi`` (depends on direction
only) and real-valued — the property the paper's compression exploits.
The closed form means it is "computed on-the-fly during convolution,
further reducing memory requirement" (§2.2): :func:`apply_gamma_hat`
contracts it against a stress field without ever materializing the 81
component arrays.

Discretization note: on an even grid the Nyquist planes (``xi_i = -n/2``)
have no conjugate partner, while ``Gamma_hat`` is even only under negating
the *full* frequency vector — so a naive evaluation produces non-Hermitian
output there, and the subsequent ``real()`` silently perturbs the
operator (breaking the projector identity ``Gamma C0 Gamma = Gamma`` by
O(Nyquist content)).  Following standard Moulinec-Suquet practice, Gamma
is defined as zero on all Nyquist planes (like the mean mode).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.kernels.freq import frequency_grid, frequency_norm2
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class LameParameters:
    """Isotropic reference-medium Lame coefficients ``(lambda0, mu0)``."""

    lam: float
    mu: float

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ConfigurationError(f"mu must be positive, got {self.mu}")
        if self.lam + 2 * self.mu <= 0:
            raise ConfigurationError(
                f"lambda + 2 mu must be positive, got {self.lam + 2 * self.mu}"
            )

    @classmethod
    def from_young_poisson(cls, young: float, poisson: float) -> "LameParameters":
        """Construct from Young's modulus E and Poisson ratio nu."""
        if young <= 0:
            raise ConfigurationError(f"Young's modulus must be positive, got {young}")
        if not -1.0 < poisson < 0.5:
            raise ConfigurationError(f"Poisson ratio must be in (-1, 0.5), got {poisson}")
        lam = young * poisson / ((1 + poisson) * (1 - 2 * poisson))
        mu = young / (2 * (1 + poisson))
        return cls(lam=lam, mu=mu)

    @property
    def coef2(self) -> float:
        """The second-term coefficient ``(lam + mu) / (mu (lam + 2 mu))``."""
        return (self.lam + self.mu) / (self.mu * (self.lam + 2 * self.mu))


def nyquist_mask(
    xi: Tuple[np.ndarray, np.ndarray, np.ndarray], n: int
) -> np.ndarray:
    """Boolean mask of modes on a Nyquist plane (any ``xi_i == -n/2``).

    Empty for odd ``n`` (no Nyquist frequency).  Broadcasts like the xi
    components it is built from.
    """
    if n % 2 != 0:
        return np.zeros(np.broadcast_shapes(*(np.shape(x) for x in xi)), dtype=bool)
    nyq = -(n // 2)
    return (xi[0] == nyq) | (xi[1] == nyq) | (xi[2] == nyq)


def gamma_hat_tensor(  # repro-lint: disable=DEAD001 oracle of test_kernels.py::TestGammaOperator
    n: int, lame: LameParameters
) -> np.ndarray:
    """Materialize ``Gamma_hat`` as a ``(3,3,3,3,n,n,n)`` real array.

    For validation and small grids only — 81 component fields.  Production
    code uses :func:`apply_gamma_hat`.  The zero frequency and the Nyquist
    planes are set to zero (the operator annihilates the mean; see the
    module docstring for the Nyquist convention).
    """
    check_positive_int(n, "n")
    xi = _xi_components(n)
    norm2 = frequency_norm2(n)
    keep = ~nyquist_mask(xi, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = np.where((norm2 > 0) & keep, 1.0 / np.where(norm2 > 0, norm2, 1.0), 0.0)
    inv4 = inv2 * inv2
    out = np.zeros((3, 3, 3, 3, n, n, n), dtype=np.float64)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    term1 = np.zeros((n, n, n))
                    if k == i:
                        term1 = term1 + xi[l] * xi[j]
                    if l == i:
                        term1 = term1 + xi[k] * xi[j]
                    if k == j:
                        term1 = term1 + xi[l] * xi[i]
                    if l == j:
                        term1 = term1 + xi[k] * xi[i]
                    out[i, j, k, l] = term1 * inv2 / (4.0 * lame.mu) - (
                        lame.coef2 * xi[i] * xi[j] * xi[k] * xi[l] * inv4
                    )
    return out


def apply_gamma_generic(
    tau_hat: np.ndarray,
    xi: Tuple[np.ndarray, np.ndarray, np.ndarray],
    lame: LameParameters,
    n: Optional[int] = None,
) -> np.ndarray:
    """Contract ``Gamma_hat(xi) : tau_hat`` for arbitrary frequency layouts.

    ``tau_hat`` has shape ``(3, 3, *S)`` and each ``xi`` component
    broadcasts against ``S`` — this is what lets the pencil-batched
    low-communication solver evaluate Gamma per z-pencil batch (xi_x, xi_y
    scalars per pencil, xi_z a full axis) without materializing anything.
    The xi == 0 mode maps to zero (guarded division); when the grid size
    ``n`` is supplied, Nyquist planes are zeroed too (module docstring).
    """
    tau_hat = np.asarray(tau_hat)
    if tau_hat.ndim < 3 or tau_hat.shape[:2] != (3, 3):
        raise ShapeError(
            f"tau_hat must have shape (3, 3, ...), got {tau_hat.shape}"
        )
    norm2 = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
    keep = norm2 > 0
    if n is not None:
        keep = keep & ~nyquist_mask(xi, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv2 = np.where(keep, 1.0 / np.where(norm2 > 0, norm2, 1.0), 0.0)

    # With a_i = tau_il xi_l, b_i = xi_k tau_ki and q = xi . tau . xi,
    #   (Gamma : tau)_ij = (xi_j (a_i + b_i) + xi_i (a_j + b_j)) / (4 mu |xi|^2)
    #                      - coef2 xi_i xi_j q / |xi|^4
    #                    = xi_j w_i + xi_i w_j,
    #   w_i = (a_i + b_i) / (4 mu |xi|^2) - xi_i coef2 q / (2 |xi|^4):
    # three fields carry both terms, and the result is symmetric in (i, j)
    # whatever tau_hat is.
    x0, x1, x2 = xi
    a = [tau_hat[i, 0] * x0 + tau_hat[i, 1] * x1 + tau_hat[i, 2] * x2 for i in range(3)]
    b = [x0 * tau_hat[0, i] + x1 * tau_hat[1, i] + x2 * tau_hat[2, i] for i in range(3)]
    q = (x0 * a[0] + x1 * a[1] + x2 * a[2]) * (0.5 * lame.coef2 * inv2 * inv2)
    inv2 = inv2 / (4.0 * lame.mu)
    w = [(a[i] + b[i]) * inv2 - xi[i] * q for i in range(3)]

    out = np.empty(
        (3, 3) + np.broadcast_shapes(tau_hat.shape[2:], norm2.shape),
        dtype=np.result_type(tau_hat.dtype, np.float64),
    )
    for i in range(3):
        for j in range(i, 3):
            out[i, j] = xi[j] * w[i] + xi[i] * w[j]
            if i != j:
                out[j, i] = out[i, j]
    return out


def apply_gamma_hat(tau_hat: np.ndarray, lame: LameParameters) -> np.ndarray:
    """Contract ``Gamma_hat_ijkl(xi) tau_hat_kl(xi)`` on the fly over the
    dense grid: :func:`apply_gamma_generic` at the grid's own frequencies,
    for a Fourier-space tensor field of shape ``(3, 3, n, n, n)``.  The
    rank-4 tensor is never formed — the "on-the-fly" evaluation the paper
    highlights.
    """
    tau_hat = np.asarray(tau_hat)
    n = tau_hat.shape[-1]
    if tau_hat.shape != (3, 3, n, n, n):
        raise ShapeError(
            f"tau_hat must have shape (3, 3, n, n, n), got {tau_hat.shape}"
        )
    return apply_gamma_generic(tau_hat, _xi_components(n), lame, n=n)


#: Independent components of a symmetric rank-2 tensor, in stacking order.
SYM_COMPONENTS: Tuple[Tuple[int, int], ...] = (
    (0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1),
)
_SYM_I, _SYM_J = (list(axis) for axis in zip(*SYM_COMPONENTS))
_SYM_INDEX = np.zeros((3, 3), dtype=np.intp)  # (i, j) -> position in the stack
_SYM_INDEX[_SYM_I, _SYM_J] = _SYM_INDEX[_SYM_J, _SYM_I] = np.arange(6)


def gamma_pencil_operator(
    lame: LameParameters, n: int
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """``Gamma_hat : tau`` as the staged transform's pointwise step.

    ``apply(tau, ix, iy)`` maps the ``(6, B, n)`` z-spectra of a symmetric
    ``tau``'s :data:`SYM_COMPONENTS` over ``B`` pencils (x / y frequency
    indices ``ix``, ``iy``) to those of ``Gamma_hat : tau``, Eq 3 evaluated
    from the pencil's frequencies.  ``Gamma_hat`` is real and even in
    ``xi``, which is what ``real_kernel=True`` asks of an operator given to
    :class:`~repro.core.local_conv.LocalConvolution`.
    """
    freqs = np.fft.fftfreq(n, d=1.0 / n)
    xi_z = freqs.reshape(1, n)

    def apply(tau: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        xi = (freqs[ix].reshape(-1, 1), freqs[iy].reshape(-1, 1), xi_z)
        return apply_gamma_generic(tau[_SYM_INDEX], xi, lame, n=n)[_SYM_I, _SYM_J]

    return apply


def _xi_components(n: int):
    """Dense-broadcastable frequency components indexed 0..2."""
    xi_x, xi_y, xi_z = frequency_grid(n)
    return (xi_x, xi_y, xi_z)
