"""Eyre-Milton accelerated fixed-point scheme.

The basic Moulinec-Suquet scheme (Algorithm 1) needs O(contrast)
iterations; the Eyre-Milton variant (Eyre & Milton 1999, in the
formulation of Moulinec & Silva 2014) converges in O(sqrt(contrast)) by
preconditioning the residual with ``2 (C(x) + C0)^{-1} : C0``:

    eps <- eps + 2 (C(x) + C0)^{-1} : C0 : LS(eps),
    LS(eps) = E - eps - Gamma0 * tau(eps),   tau = sigma - C0 : eps

``LS`` is the Lippmann-Schwinger residual evaluated on the *polarization*
``tau`` — not on ``sigma`` as the basic scheme may (the two coincide only
on compatible strain fields, and the preconditioned step leaves the
compatible manifold, so the distinction is load-bearing).  The fixed
point (LS = 0) is the same solution.  The per-phase operator is assembled
exactly in Mandel notation (where rank-4 composition and inversion are
matrix composition and inversion).

This is a reproduction extension: the paper's MASSIF description is the
basic scheme; acceleration matters here because it multiplies the paper's
per-iteration convolution savings by needing fewer iterations, and it
composes with the low-communication Gamma evaluation unchanged.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.kernels.green_massif import LameParameters
from repro.massif.elasticity import (
    StiffnessField,
    isotropic_stiffness,
    mandel_from_tensor,
    tensor_from_mandel,
)
from repro.massif.solver import MassifSolver


def _preconditioner_tensors(
    stiffness: StiffnessField, reference: LameParameters
) -> List[np.ndarray]:
    """Per-phase ``2 (C_p + C0)^{-1} : C0`` assembled in Mandel notation."""
    c0_mandel = mandel_from_tensor(isotropic_stiffness(reference))
    out = []
    for tensor in stiffness.phase_tensors:
        cp_mandel = mandel_from_tensor(tensor)
        m = 2.0 * np.linalg.solve(cp_mandel + c0_mandel, c0_mandel)
        out.append(tensor_from_mandel(m))
    return out


class EyreMiltonSolver(MassifSolver):
    """Accelerated MASSIF inner loop (same interface as :class:`MassifSolver`).

    Overrides only the strain update; the Gamma convolution step —
    including the low-communication override in subclasses — is reused via
    :meth:`_gamma_correction`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._precond = _preconditioner_tensors(self.stiffness, self.reference)
        self._precond_field = StiffnessField(
            self.stiffness.phase_map, self._precond
        )

    def solve(self, macro_strain: np.ndarray):
        """Run the accelerated iteration (structure mirrors the base solve)."""
        from repro.errors import ConvergenceError, ShapeError
        from repro.massif.convergence import equilibrium_residual, strain_change
        from repro.massif.solver import SolverReport

        macro = np.asarray(macro_strain, dtype=np.float64)
        if macro.shape != (3, 3):
            raise ShapeError(f"macro strain must be (3, 3), got {macro.shape}")
        macro = 0.5 * (macro + macro.T)
        self._on_solve_start()

        n = self.stiffness.n
        eps = np.broadcast_to(macro[:, :, None, None, None], (3, 3, n, n, n)).copy()
        residuals: List[float] = []
        changes: List[float] = []
        sigma = self.stiffness.apply(eps)
        best = (np.inf, eps, sigma)
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
            # Lippmann-Schwinger residual on the polarization:
            #   tau = sigma - C0 : eps ;  LS = E - eps - Gamma0 * tau
            trace = eps[0, 0] + eps[1, 1] + eps[2, 2]
            c0_eps = 2.0 * self.reference.mu * eps
            for d in range(3):
                c0_eps[d, d] += self.reference.lam * trace
            tau = sigma - c0_eps
            gamma_tau = self._gamma_correction(tau)
            ls = -eps - gamma_tau + macro[:, :, None, None, None]
            # Preconditioned step: eps += 2 (C + C0)^{-1} C0 : LS
            eps_new = eps + self._precond_field.apply(ls)
            changes.append(strain_change(eps_new, eps))
            eps = eps_new
            sigma = self.stiffness.apply(eps)

        if self.raise_on_fail:
            raise ConvergenceError(
                f"Eyre-Milton did not converge in {self.max_iter} iterations "
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


def reference_lame_eyre_milton(stiffness: StiffnessField) -> LameParameters:
    """Eyre-Milton's recommended reference: the *geometric* mean of the
    phase extremes (vs the basic scheme's arithmetic midpoint)."""
    lams, mus = zip(
        *(StiffnessField._project_lame(t) for t in stiffness.phase_tensors)
    )
    lam0 = float(np.sqrt(min(lams) * max(lams))) if min(lams) > 0 else (
        0.5 * (min(lams) + max(lams))
    )
    mu0 = float(np.sqrt(min(mus) * max(mus)))
    return LameParameters(lam=lam0, mu=mu0)
