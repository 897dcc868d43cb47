"""Precomputed execution plans for the pruned staged convolution.

The staged pipeline's per-call overheads — choosing how each inverse stage
is computed and building the matrices that choice needs — are functions
of ``(n, sampling pattern)`` only, not of the data.  A :class:`PrunedPlan`
precomputes them once, and :func:`plan_for` keeps every plan the process
has built in one byte-bounded table, :data:`PLANS`, keyed by ``n`` and a
digest of each coordinate array (not by thousands-of-ints tuples): every
pipeline, rank thread and serve engine that meets a congruent pattern
gets the same plan.  This is the plan-reuse lever distributed FFT
libraries (FFTW wisdom, cuFFT plans, P3DFFT setup) get their constant
factors from, applied to the paper's pruned transforms.  A plan is never
changed once built; the pad buffers its forward stages fill belong to
the caller (:class:`~repro.fft.pruned.PadScratch`), so concurrent callers
of one plan never share one.

Every plan is Hermitian: fields are real and kernel spectra real and
centrosymmetric (paper §3.1), so the x stage is rfft-based, only the
``n//2 + 1`` non-redundant pencil rows flow through the z stage and
pointwise multiply, and the final x stage folds the conjugate mirror back
in analytically (:func:`repro.fft.pruned.hermitian_real_idft_matrix`) —
half the flops and half the ``8*N*N*k`` slab working set of Table 1.

**Inverse-stage strategy.**  A pruned inverse to ``m`` of ``n`` outputs is
either a partial-iDFT GEMM (``8*n*m`` flops a pencil) or a full inverse
FFT followed by a take of the ``m`` retained coordinates
(``5*n*log2(n)`` flops whatever ``m`` is).  :func:`inverse_strategy`
picks per axis, once, at plan build, from ``(n, m)`` alone —
never from a timing, because every process that computes part of one
result (pool ranks, the server, ``run_serial``) must pick the same
arithmetic for cross-mode results to stay bitwise identical.  The choice
is readable as :attr:`PrunedPlan.strategy`.
"""

from __future__ import annotations

import hashlib
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.fft.pruned import (
    PadScratch,
    _coords_array,
    half_length,
    hermitian_real_idft_matrix,
    partial_idft_matrix,
    rslab_from_subcube,
    zstage_batch,
)
from repro.util.lru import WeightedLRU
from repro.util.validation import check_positive_int


#: The one constant of the inverse-stage rule: the z and y stages leave the
#: partial-iDFT GEMM for inverse FFT + take once ``m > FFT_CROSSOVER *
#: log2(n)`` — the GEMM's per-pencil cost grows as ``n*m``, the FFT's as
#: ``n*log2(n)``.  Measured by ``benchmarks/bench_inverse_stage_crossover.py``
#: (table in EXPERIMENTS.md) with pocketfft and one OpenBLAS thread.
FFT_CROSSOVER = 5.5


class InverseStrategy(NamedTuple):
    """How the pruned z and y inverse stages of a plan are computed.

    Each is ``"gemm"`` (partial-iDFT matrix product) or ``"fft"`` (full
    inverse FFT, then take the retained coordinates).  The x stage has
    one form: a real GEMM on the half-spectrum rows that folds the
    conjugate mirror in.
    """

    z: str
    y: str


def inverse_strategy(n: int, my: int, mz: int) -> InverseStrategy:
    """The strategy a plan of this shape uses: a pure function of its
    arguments, so every process building the plan gets the same answer."""
    threshold = FFT_CROSSOVER * math.log2(n)

    def pick(m: int) -> str:
        return "fft" if m > threshold else "gemm"

    return InverseStrategy(z=pick(mz), y=pick(my))


class PrunedPlan:
    """Everything data-independent about one pruned staged convolution.

    Parameters
    ----------
    n:
        Global grid edge.
    coords_x, coords_y, coords_z:
        Retained output coordinates per axis (the pattern's axis sets).
    """

    def __init__(
        self,
        n: int,
        coords_x: Sequence[int],
        coords_y: Sequence[int],
        coords_z: Sequence[int],
    ):
        self.n = check_positive_int(n, "n")
        self.coords_x = _coords_array(coords_x, n)
        self.coords_y = _coords_array(coords_y, n)
        self.coords_z = _coords_array(coords_z, n)
        self.mat_x = hermitian_real_idft_matrix(n, self.coords_x)
        self._set_strategy(inverse_strategy(n, self.my, self.mz))
        # the half slab flattens to (slab_rows * n, k) pencils
        self.slab_rows = half_length(n)
        self.num_pencils = self.slab_rows * n

    def _set_strategy(self, strategy: InverseStrategy) -> None:
        """Record ``strategy`` and build the matrices it uses (shared via
        the module-level digest cache), and only those: an ``"fft"`` axis
        holds ``None``.  ``__init__`` passes the rule's answer; tests call
        this to put a plan of their own (never one from :data:`PLANS`) on a
        strategy the rule would not pick."""
        n = self.n
        self.strategy = strategy
        self.mat_z = (
            partial_idft_matrix(n, self.coords_z) if strategy.z == "gemm" else None
        )
        self.mat_y = (
            partial_idft_matrix(n, self.coords_y) if strategy.y == "gemm" else None
        )

    # -- sizes ---------------------------------------------------------------
    @property
    def mx(self) -> int:
        return len(self.coords_x)

    @property
    def my(self) -> int:
        return len(self.coords_y)

    @property
    def mz(self) -> int:
        return len(self.coords_z)

    @property
    def nbytes(self) -> int:
        """Bytes the plan keeps alive: its coordinates and matrices."""
        arrays = (
            self.coords_x, self.coords_y, self.coords_z,
            self.mat_x, self.mat_y, self.mat_z,
        )
        return sum(a.nbytes for a in arrays if a is not None)

    # -- forward stages ------------------------------------------------------
    def forward_slab(
        self,
        sub: np.ndarray,
        corner: Sequence[int],
        scratch: Optional[PadScratch] = None,
    ) -> np.ndarray:
        """x/y stages: the ``(slab_rows, n, k)`` half slab; leading
        component axes of ``sub`` pass through.  ``scratch`` holds the
        caller's pad buffers."""
        return rslab_from_subcube(sub, corner, self.n, scratch=scratch)

    def zstage(
        self,
        slab_rows: np.ndarray,
        corner_z: int,
        scratch: Optional[PadScratch] = None,
    ) -> np.ndarray:
        """Forward z transform of a pencil batch, padded in the caller's
        ``scratch``."""
        return zstage_batch(slab_rows, corner_z, self.n, scratch=scratch)

    # -- pruned inverse stages ----------------------------------------------
    # ``np.take`` runs with ``mode="clip"`` because the default ``"raise"``
    # buffers ``out``; the coordinates were range-checked at construction,
    # so clipping never changes one.
    def idft_z(
        self, spectrum: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Partial inverse along the last axis to the retained z coords.

        ``out``, if given, receives the result (the same bytes the
        returning form produces).  The ``"fft"`` strategy allocates one
        full-length temporary the shape of ``spectrum``.
        """
        if self.mat_z is None:
            full = np.fft.ifft(spectrum, axis=-1)
            return np.take(full, self.coords_z, axis=-1, out=out, mode="clip")
        return np.matmul(spectrum, self.mat_z.T, out=out)

    def idft_y(self, arr: np.ndarray) -> np.ndarray:
        """Partial inverse of a ``(rows, n, mz)`` array along axis 1 to the
        retained y coords.

        The ``"fft"`` strategy goes row by row, so its full-length
        temporary is one ``(n, mz)`` plane, never the whole array.
        """
        if self.mat_y is None:
            out = np.empty((arr.shape[0], self.my, arr.shape[2]), dtype=np.complex128)
            for plane, out_plane in zip(arr, out):
                full = np.fft.ifft(plane, axis=0)
                np.take(full, self.coords_y, axis=0, out=out_plane, mode="clip")
            return out
        return np.matmul(self.mat_y, arr)

    def idft_x(self, arr: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
        """Partial inverse of a ``(slab_rows, my, mz)`` half-spectrum array
        along axis 0 to the retained x coords, as a C-contiguous real
        ``(mx, my, mz)`` box.

        One real GEMM on the real and imaginary parts stacked as rows;
        ``work`` is an optional complex buffer of at least ``arr.size``
        elements to stack them in (the caller's spent z-stage output, say)
        instead of a fresh allocation.
        """
        flat = arr.reshape(arr.shape[0], -1)
        rows, width = flat.shape
        if work is None:
            work = np.empty(flat.size, dtype=np.complex128)
        stacked = work.reshape(-1).view(np.float64)[: 2 * flat.size]
        stacked = stacked.reshape(2 * rows, width)
        stacked[:rows] = flat.real
        stacked[rows:] = flat.imag
        return np.matmul(self.mat_x, stacked).reshape((self.mx,) + arr.shape[1:])




#: Every plan :func:`plan_for` has built in this process, by ``(n,
#: digests of the three coordinate arrays)``.  A plan is a pure function of
#: that key, so pipelines, rank threads, serve engines and recovery all
#: share one per congruent pattern, and a warm job builds none.  Weighed
#: by :attr:`PrunedPlan.nbytes` (its matrices are also entries of the
#: matrix table, so this overstates what the plans alone hold); bounded at
#: 64 MiB (a ``banded`` n=64 / k=16 plan weighs about 75 kB, a full n=128
#: one 136 kB).
PLANS: "WeightedLRU[PrunedPlan]" = WeightedLRU(max_weight=64 << 20)


def plan_for(
    n: int,
    coords_x: Sequence[int],
    coords_y: Sequence[int],
    coords_z: Sequence[int],
) -> PrunedPlan:
    """The plan for one configuration from :data:`PLANS`, built on a miss."""
    coords = [_coords_array(c, n) for c in (coords_x, coords_y, coords_z)]
    key = (n,) + tuple(hashlib.sha1(c.tobytes()).digest() for c in coords)
    plan = PLANS.get(key)
    if plan is None:
        plan = PrunedPlan(n, *coords)
        plan = PLANS.put(key, plan, plan.nbytes)
    return plan
