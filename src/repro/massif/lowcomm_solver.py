"""The proposed MASSIF inner loop — Algorithm 2 (low-communication).

Identical fixed-point structure to Algorithm 1, but the Gamma convolution
(steps 3-5) runs on the library's in-process low-communication runtime —
the one ``run_serial`` runs on — with a tensor-valued field:

- the six independent stress components of every sub-domain that is not
  all zero go, as one ``(6, k, k, k)`` block, through
  :meth:`~repro.core.pipeline.LowCommConvolution3D.convolve_chunks`: the
  pruned staged transform on the Hermitian half spectrum, its pointwise
  step the *on-the-fly* ``Gamma_hat`` contraction
  (:func:`~repro.kernels.green_massif.gamma_pencil_operator`; Eq 3 from
  each pencil's frequencies, no kernel array is ever materialized),
  compressed onto the sub-domain's octree pattern, one field a component;
- interpolation accumulates ``Delta eps`` component by component
  (:func:`~repro.core.accumulate.accumulate_global`; Alg 2 line 6) — the
  step that, across ranks, is the one sparse exchange;
- strain/stress updates proceed exactly as in Algorithm 1 (lines 7-8).

Approximation error enters only through the sampling/interpolation of each
sub-domain's convolution tail; the paper observes ("§5.3") that up to 3%
convolution error "did not largely impact convergence or number of
iterations" — reproduced by the convergence benchmark.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.accumulate import accumulate_global
from repro.core.decomposition import SubDomain
from repro.core.local_conv import PencilOperator
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.kernels.green_massif import (
    SYM_COMPONENTS,
    LameParameters,
    gamma_pencil_operator,
)
from repro.massif.elasticity import StiffnessField
from repro.massif.solver import MassifSolver
from repro.octree.compress import CompressedField


class LowCommMassifSolver(MassifSolver):
    """Algorithm 2: MASSIF with domain-local compressed Gamma convolution.

    Additional parameters over :class:`MassifSolver`:

    k:
        Sub-domain edge length.
    policy:
        Compression hyperparameters.
    batch:
        z-pencil batch size B; ``None`` sizes it from ``n`` and the six
        stacked components by :func:`~repro.fft.pruned.default_pencil_batch`.

    Accuracy note (reproduction finding, see EXPERIMENTS.md E9): the
    compressed convolution is a fixed *linear* perturbation of the exact
    Gamma operator whose error does not vanish on divergence-free stress
    fields, so with lossy rates (r > 1) the fixed point shifts: the
    equilibrium residual stalls at a floor set by the compression level
    instead of reaching tight tolerances, while *volume-averaged*
    (homogenized) outputs stay within a few percent — consistent with the
    paper's observation that ~3% convolution error "did not largely impact
    convergence", which the paper established for single convolutions with
    a Gaussian proxy kernel.  With ``r = 1`` the solver reproduces
    Algorithm 1 bit-for-bit while keeping the low-communication layout.
    Use ``stall_window`` to stop cleanly at the floor.
    """

    def __init__(
        self,
        stiffness: StiffnessField,
        k: int,
        policy: Optional[SamplingPolicy] = None,
        reference: Optional[LameParameters] = None,
        tol: float = 1e-6,
        max_iter: int = 200,
        batch: Optional[int] = None,
        stall_window: int = 0,
        raise_on_fail: bool = True,
    ):
        super().__init__(
            stiffness,
            reference=reference,
            tol=tol,
            max_iter=max_iter,
            raise_on_fail=raise_on_fail,
            stall_window=stall_window,
        )
        n = stiffness.n
        self.policy = policy or SamplingPolicy.flat_rate(2)
        self.pipeline = LowCommConvolution3D(
            n,
            k,
            PencilOperator(gamma_pencil_operator(self.reference, n)),
            policy=self.policy,
            batch=batch,
        )
        self.decomposition = self.pipeline.decomposition

    def _convolve_components(
        self, sigma: np.ndarray
    ) -> List[Tuple[SubDomain, List[CompressedField]]]:
        """Compressed ``Gamma : sigma_d`` of every active sub-domain ``d``:
        one field per :data:`SYM_COMPONENTS` entry, on one pattern."""
        components = np.stack([sigma[i, j] for i, j in SYM_COMPONENTS])
        blocks = self.decomposition.active_blocks(components)
        return list(self.pipeline.convolve_chunks(blocks))

    # -- the overridden convolution step ----------------------------------------
    def _gamma_correction(self, sigma: np.ndarray) -> np.ndarray:
        """Domain-local compressed evaluation of ``ifft(Gamma : fft(sigma))``."""
        per_domain = self._convolve_components(sigma)
        deps = np.zeros_like(sigma)
        if per_domain:
            for comp, (i, j) in enumerate(SYM_COMPONENTS):
                deps[i, j] = deps[j, i] = accumulate_global(
                    {sub.index: fields[comp] for sub, fields in per_domain}
                )
        return deps
