"""Precomputed execution plans for the pruned staged convolution.

The staged pipeline's per-call overheads — choosing how each inverse stage
is computed, building the matrices that choice needs, zero-filling pad
buffers, recomputing pencil index arrays — are all functions of ``(n,
sampling pattern)`` only, not of the data.  A :class:`PrunedPlan`
precomputes them once; a :class:`PlanCache` shares plans across all sub-domains with congruent
patterns (keyed by a digest of the coordinate arrays, not by
thousands-of-ints tuples).  This is the plan-reuse lever distributed FFT
libraries (FFTW wisdom, cuFFT plans, P3DFFT setup) get their constant
factors from, applied to the paper's pruned transforms.

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
import threading
from collections import OrderedDict
from typing import NamedTuple, Optional, Sequence, Tuple

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
    scratch:
        Pad-buffer scratch to use; plans from one :class:`PlanCache`
        share a single scratch so congruent stages reuse buffers.
    """

    def __init__(
        self,
        n: int,
        coords_x: Sequence[int],
        coords_y: Sequence[int],
        coords_z: Sequence[int],
        scratch: Optional[PadScratch] = None,
    ):
        self.n = check_positive_int(n, "n")
        self.scratch = scratch if scratch is not None else PadScratch()
        self.coords_x = _coords_array(coords_x, n)
        self.coords_y = _coords_array(coords_y, n)
        self.coords_z = _coords_array(coords_z, n)
        self.mat_x = hermitian_real_idft_matrix(n, self.coords_x)
        self._set_strategy(inverse_strategy(n, self.my, self.mz))
        # Pencil bookkeeping: the half slab flattens to (slab_rows * n, k)
        # and a pencil operator needs each pencil's (fx, fy) — hoisted
        # here instead of a divmod per convolve call.
        self.slab_rows = half_length(n)
        self.num_pencils = self.slab_rows * n
        self.pencil_ix, self.pencil_iy = np.divmod(
            np.arange(self.num_pencils, dtype=np.intp), n
        )

    def _set_strategy(self, strategy: InverseStrategy) -> None:
        """Record ``strategy`` and build the matrices it uses (shared via
        the module-level digest cache), and only those: an ``"fft"`` axis
        holds ``None``.  ``__init__`` passes the rule's answer; tests call
        this to put a plan on a strategy the rule would not pick."""
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

    # -- forward stages ------------------------------------------------------
    def forward_slab(self, sub: np.ndarray, corner: Sequence[int]) -> np.ndarray:
        """x/y stages: the ``(slab_rows, n, k)`` half slab; leading
        component axes of ``sub`` pass through."""
        return rslab_from_subcube(sub, corner, self.n, scratch=self.scratch)

    def zstage(self, slab_rows: np.ndarray, corner_z: int) -> np.ndarray:
        """Forward z transform of a pencil batch (plan-owned pad buffer)."""
        return zstage_batch(slab_rows, corner_z, self.n, scratch=self.scratch)

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


def _digest(coords: np.ndarray) -> bytes:
    return hashlib.sha1(np.ascontiguousarray(coords, dtype=np.intp).tobytes()).digest()


class PlanCache:
    """Digest-keyed cache of :class:`PrunedPlan` objects.

    All sub-domains whose patterns retain the same per-axis coordinate
    sets (congruent patterns) share one plan — and all plans share one
    :class:`PadScratch`, so pad buffers are reused across sub-domains too.
    At ``max_plans`` the least recently *used* plan goes (a hit refreshes
    recency), so a plan in active use outlives one that was only built
    earlier.

    Lookup/insert is thread-safe: the serving layer submits congruent
    work from scheduler threads, so concurrent :meth:`get` calls on one
    cache must neither corrupt the dict nor build duplicate plans.  The
    lock is held across a miss's plan construction — deliberately, so a
    burst of congruent first requests builds each plan exactly once
    instead of racing N identical builds.
    """

    def __init__(self, max_plans: int = 64):
        self.max_plans = check_positive_int(max_plans, "max_plans")
        self.scratch = PadScratch()
        self.hits = 0
        self.misses = 0
        self._plans: "OrderedDict[Tuple, PrunedPlan]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def get(
        self,
        n: int,
        coords_x: Sequence[int],
        coords_y: Sequence[int],
        coords_z: Sequence[int],
    ) -> PrunedPlan:
        """Fetch (or build) the plan for one configuration."""
        cx = _coords_array(coords_x, n)
        cy = _coords_array(coords_y, n)
        cz = _coords_array(coords_z, n)
        key = (n, _digest(cx), _digest(cy), _digest(cz))
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                plan = PrunedPlan(n, cx, cy, cz, scratch=self.scratch)
                if len(self._plans) >= self.max_plans:
                    self._plans.popitem(last=False)
                self._plans[key] = plan
            else:
                self.hits += 1
                self._plans.move_to_end(key)
            return plan


_DEFAULT_CACHE = PlanCache()


def default_cache() -> PlanCache:
    """The process-wide plan cache: a standing pool's rank agent keeps
    its plans here from job to job."""
    return _DEFAULT_CACHE


def reset_default_cache() -> PlanCache:  # repro-lint: disable=DEAD001 isolation hook of tests/conftest.py
    """Replace the process-wide default cache with a cold one.

    Plans, scratch buffers, and the hit/miss counters all reset.  This is
    the test-isolation hook: the suite's autouse fixture calls it so no
    test ever observes plans (or cache metrics) warmed by another test.
    Returns the fresh cache.
    """
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = PlanCache()
    return _DEFAULT_CACHE
