"""The reference MASSIF inner loop — Algorithm 1 (Moulinec-Suquet basic scheme).

Per iteration, with prescribed macroscopic strain ``E``:

1. ``sigma = C(x) : eps``                       (local constitutive law)
2. ``sigma_hat = FFT(sigma)``                   (Alg 1 step 2)
3. ``eps_hat <- eps_hat - Gamma_hat : sigma_hat``  (steps 3-4; convolution)
4. ``eps_hat(0) = E``                           (mean strain prescribed)
5. ``eps = iFFT(eps_hat)``                      (step 5)
6. convergence check on equilibrium residual    (step 7)

This is the loop whose 3D convolutions (9 per stress component update, §3.2)
motivate the whole paper; the reference implementation is dense/spectral and
serves as ground truth for :class:`~repro.massif.lowcomm_solver.
LowCommMassifSolver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConvergenceError, ShapeError
from repro.kernels.green_massif import LameParameters
from repro.massif.convergence import equilibrium_residual, strain_change
from repro.massif.elasticity import StiffnessField
from repro.massif.green_operator import gamma_convolve_dense


@dataclass
class SolverReport:
    """Converged fields plus the iteration history."""

    strain: np.ndarray
    stress: np.ndarray
    iterations: int
    converged: bool
    residuals: List[float] = field(default_factory=list)
    strain_changes: List[float] = field(default_factory=list)
    #: True when iteration stopped because the residual stopped improving
    #: (the approximate solver's error floor) rather than reaching tol.
    stalled: bool = False

    def effective_stress(self) -> np.ndarray:
        """Volume-average stress ``<sigma>`` (3x3) — the homogenized output."""
        return self.stress.mean(axis=(2, 3, 4))

    def effective_strain(self) -> np.ndarray:
        """Volume-average strain ``<eps>`` (should equal the prescribed E)."""
        return self.strain.mean(axis=(2, 3, 4))


class MassifSolver:
    """Moulinec-Suquet basic-scheme solver (the paper's Algorithm 1).

    Parameters
    ----------
    stiffness:
        Heterogeneous stiffness field ``C(x)``.
    reference:
        Reference-medium Lame parameters; defaults to the mean-stiffness
        projection (the classic convergent choice).
    tol:
        Equilibrium residual tolerance.
    max_iter:
        Iteration budget; exceeding it raises :class:`ConvergenceError`
        unless ``raise_on_fail=False``.
    stall_window:
        If > 0, stop (with ``stalled=True``) when the best residual has not
        improved by at least 1% over the last ``stall_window`` iterations —
        the clean exit at an approximate solver's error floor.
    """

    def __init__(
        self,
        stiffness: StiffnessField,
        reference: Optional[LameParameters] = None,
        tol: float = 1e-6,
        max_iter: int = 200,
        raise_on_fail: bool = True,
        stall_window: int = 0,
    ):
        self.stiffness = stiffness
        self.reference = reference or stiffness.reference_lame()
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.raise_on_fail = raise_on_fail
        self.stall_window = int(stall_window)

    def _gamma_correction(self, sigma: np.ndarray) -> np.ndarray:
        """One Gamma convolution: ``ifft(Gamma_hat : fft(sigma))``.

        Overridden by the low-communication solver; everything else in the
        loop is shared.
        """
        return gamma_convolve_dense(sigma, self.reference)

    def _on_solve_start(self) -> None:
        """Hook for subclasses to reset per-solve state."""

    def solve(self, macro_strain: np.ndarray) -> SolverReport:
        """Run the fixed-point iteration under prescribed mean strain ``E``."""
        macro = np.asarray(macro_strain, dtype=np.float64)
        if macro.shape != (3, 3):
            raise ShapeError(f"macro strain must be (3, 3), got {macro.shape}")
        macro = 0.5 * (macro + macro.T)  # symmetrize
        self._on_solve_start()

        n = self.stiffness.n
        eps = np.broadcast_to(
            macro[:, :, None, None, None], (3, 3, n, n, n)
        ).copy()

        residuals: List[float] = []
        changes: List[float] = []
        sigma = self.stiffness.apply(eps)
        best = (np.inf, eps, sigma)  # track the lowest-residual iterate
        for iteration in range(1, self.max_iter + 1):
            residual = equilibrium_residual(sigma)
            residuals.append(residual)
            if residual < best[0]:
                best = (residual, eps, sigma)
            if residual < self.tol:
                return SolverReport(
                    strain=eps,
                    stress=sigma,
                    iterations=iteration - 1,
                    converged=True,
                    residuals=residuals,
                    strain_changes=changes,
                )
            if (
                self.stall_window > 0
                and len(residuals) > self.stall_window
                and best[0] > 0.99 * min(residuals[: -self.stall_window])
            ):
                return SolverReport(
                    strain=best[1],
                    stress=best[2],
                    iterations=iteration - 1,
                    converged=False,
                    residuals=residuals,
                    strain_changes=changes,
                    stalled=True,
                )
            deps = self._gamma_correction(sigma)
            eps_new = eps - deps
            # Re-impose the prescribed mean strain (the xi=0 mode).
            mean = eps_new.mean(axis=(2, 3, 4))
            eps_new += (macro - mean)[:, :, None, None, None]
            changes.append(strain_change(eps_new, eps))
            eps = eps_new
            sigma = self.stiffness.apply(eps)

        if self.raise_on_fail:
            raise ConvergenceError(
                f"MASSIF did not converge in {self.max_iter} iterations "
                f"(residual {residuals[-1]:.3e})",
                iterations=self.max_iter,
                residual=residuals[-1],
            )
        return SolverReport(
            strain=eps,
            stress=sigma,
            iterations=self.max_iter,
            converged=False,
            residuals=residuals,
            strain_changes=changes,
        )
