"""Stiffness tensors and heterogeneous stiffness fields.

MASSIF's update step 6 (Algorithm 1) is the local constitutive law
``sigma_mn(x) = C_mnkl(x) : eps_kl(x)``; this module provides the rank-4
stiffness tensors (isotropic and cubic symmetry), Voigt-notation
conversions, and :class:`StiffnessField` — a phase-indexed stiffness map
that applies the law vectorized over the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.kernels.green_massif import LameParameters

#: Voigt index pairs in standard order 11, 22, 33, 23, 13, 12.
VOIGT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


def isotropic_stiffness(lame: LameParameters) -> np.ndarray:
    """Isotropic rank-4 stiffness ``C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk)``."""
    d = np.eye(3)
    c = (
        lame.lam * np.einsum("ij,kl->ijkl", d, d)
        + lame.mu * np.einsum("ik,jl->ijkl", d, d)
        + lame.mu * np.einsum("il,jk->ijkl", d, d)
    )
    return c


def cubic_stiffness(c11: float, c12: float, c44: float) -> np.ndarray:
    """Cubic-symmetry stiffness from the three independent constants.

    Stability requires ``c44 > 0``, ``c11 > |c12|``, ``c11 + 2 c12 > 0``.
    """
    if not (c44 > 0 and c11 > abs(c12) and c11 + 2 * c12 > 0):
        raise ConfigurationError(
            f"unstable cubic constants c11={c11}, c12={c12}, c44={c44}"
        )
    c = np.zeros((3, 3, 3, 3))
    for i in range(3):
        c[i, i, i, i] = c11
        for j in range(3):
            if i != j:
                c[i, i, j, j] = c12
                c[i, j, i, j] = c44
                c[i, j, j, i] = c44
    return c


#: Mandel weights: sqrt(2) on the shear components makes the 6x6 matrix
#: product exactly equivalent to the rank-4 double contraction.
_MANDEL_WEIGHTS = np.array([1.0, 1.0, 1.0, np.sqrt(2), np.sqrt(2), np.sqrt(2)])


def mandel_from_tensor(c: np.ndarray) -> np.ndarray:
    """Rank-4 tensor (minor symmetries) -> 6x6 Mandel matrix.

    Unlike Voigt, Mandel notation is an isometry: matrix products and
    inverses of Mandel matrices correspond exactly to tensor compositions
    and inverses — what the accelerated scheme's ``(C + C0)^{-1}`` needs.
    """
    c = np.asarray(c)
    if c.shape != (3, 3, 3, 3):
        raise ShapeError(f"stiffness must be (3,3,3,3), got {c.shape}")
    out = np.empty((6, 6))
    for a, (i, j) in enumerate(VOIGT_PAIRS):
        for b, (k, l) in enumerate(VOIGT_PAIRS):
            out[a, b] = c[i, j, k, l] * _MANDEL_WEIGHTS[a] * _MANDEL_WEIGHTS[b]
    return out


def tensor_from_mandel(m: np.ndarray) -> np.ndarray:
    """6x6 Mandel matrix -> rank-4 tensor with minor symmetries."""
    m = np.asarray(m)
    if m.shape != (6, 6):
        raise ShapeError(f"Mandel matrix must be (6,6), got {m.shape}")
    c = np.zeros((3, 3, 3, 3))
    for a, (i, j) in enumerate(VOIGT_PAIRS):
        for b, (k, l) in enumerate(VOIGT_PAIRS):
            v = m[a, b] / (_MANDEL_WEIGHTS[a] * _MANDEL_WEIGHTS[b])
            c[i, j, k, l] = v
            c[j, i, k, l] = v
            c[i, j, l, k] = v
            c[j, i, l, k] = v
    return c


def voigt_from_tensor(c: np.ndarray) -> np.ndarray:
    """Rank-4 stiffness (3,3,3,3) -> 6x6 Voigt matrix."""
    c = np.asarray(c)
    if c.shape != (3, 3, 3, 3):
        raise ShapeError(f"stiffness must be (3,3,3,3), got {c.shape}")
    out = np.empty((6, 6))
    for a, (i, j) in enumerate(VOIGT_PAIRS):
        for b, (k, l) in enumerate(VOIGT_PAIRS):
            out[a, b] = c[i, j, k, l]
    return out


@dataclass
class StiffnessField:
    """A phase-indexed heterogeneous stiffness ``C_mnkl(x)``.

    Parameters
    ----------
    phase_map:
        Integer ``(n, n, n)`` array of phase labels.
    phase_tensors:
        ``phase_tensors[p]`` is the rank-4 stiffness of phase ``p``.
    """

    phase_map: np.ndarray
    phase_tensors: Sequence[np.ndarray]

    def __post_init__(self) -> None:
        self.phase_map = np.asarray(self.phase_map)
        if self.phase_map.ndim != 3:
            raise ShapeError(
                f"phase_map must be rank 3, got ndim={self.phase_map.ndim}"
            )
        if not np.issubdtype(self.phase_map.dtype, np.integer):
            raise ConfigurationError("phase_map must be an integer array")
        self.phase_tensors = [np.asarray(t, dtype=np.float64) for t in self.phase_tensors]
        for t in self.phase_tensors:
            if t.shape != (3, 3, 3, 3):
                raise ShapeError(f"phase tensor must be (3,3,3,3), got {t.shape}")
        pmin, pmax = int(self.phase_map.min()), int(self.phase_map.max())
        if pmin < 0 or pmax >= len(self.phase_tensors):
            raise ConfigurationError(
                f"phase labels in [{pmin}, {pmax}] but only "
                f"{len(self.phase_tensors)} tensors given"
            )

    @property
    def n(self) -> int:
        return self.phase_map.shape[0]

    @property
    def num_phases(self) -> int:
        return len(self.phase_tensors)

    def apply(self, eps: np.ndarray) -> np.ndarray:
        """``sigma_ij(x) = C_ijkl(x) eps_kl(x)`` vectorized per phase.

        ``eps`` has shape ``(3, 3, n, n, n)``; one einsum per phase over its
        masked voxels (phases are few, so this is a handful of passes).
        """
        eps = np.asarray(eps)
        if eps.shape != (3, 3) + self.phase_map.shape:
            raise ShapeError(
                f"eps shape {eps.shape} != (3, 3) + {self.phase_map.shape}"
            )
        sigma = np.zeros_like(eps)
        flat_phase = self.phase_map.ravel()
        eps_flat = eps.reshape(3, 3, -1)
        sigma_flat = sigma.reshape(3, 3, -1)
        for p, tensor in enumerate(self.phase_tensors):
            mask = flat_phase == p
            if not mask.any():
                continue
            sigma_flat[:, :, mask] = np.einsum(
                "ijkl,klm->ijm", tensor, eps_flat[:, :, mask]
            )
        return sigma

    def mean_tensor(self) -> np.ndarray:
        """Volume-weighted (Voigt) average stiffness — the usual reference
        medium choice for the Moulinec-Suquet scheme."""
        weights = np.bincount(
            self.phase_map.ravel(), minlength=self.num_phases
        ) / self.phase_map.size
        return sum(w * t for w, t in zip(weights, self.phase_tensors))

    @staticmethod
    def _project_lame(tensor: np.ndarray) -> Tuple[float, float]:
        """Isotropic (lam, mu) projection of a rank-4 stiffness: ``mu`` from
        the shear entries, ``lam`` from the C_1122-style entries — exact for
        isotropic phases, a sensible projection otherwise."""
        mu = float(
            (tensor[0, 1, 0, 1] + tensor[0, 2, 0, 2] + tensor[1, 2, 1, 2]) / 3.0
        )
        lam = float(
            (tensor[0, 0, 1, 1] + tensor[0, 0, 2, 2] + tensor[1, 1, 2, 2]) / 3.0
        )
        return lam, mu

    def reference_lame(self) -> LameParameters:
        """Reference-medium Lame parameters: midpoint of the phase extremes.

        Moulinec & Suquet's classic choice — the basic scheme converges for
        any finite contrast when ``C0`` is the average of the softest and
        stiffest phases, whereas the volume mean diverges at high contrast
        with dilute stiff inclusions.
        """
        lams, mus = zip(*(self._project_lame(t) for t in self.phase_tensors))
        lam0 = 0.5 * (min(lams) + max(lams))
        mu0 = 0.5 * (min(mus) + max(mus))
        return LameParameters(lam=lam0, mu=mu0)
