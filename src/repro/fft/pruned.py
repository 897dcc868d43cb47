"""Pruned staged 3D transforms: the paper's local FFT structure (Step 2).

A ``k x k x k`` sub-domain embedded (conceptually) at ``corner`` inside an
``N^3`` zero grid has a full-grid DFT, but the zeros never need to be
materialized:

1. **Slab stage** — 1D FFTs along x then y, padding only the 1D pencils
   ("Zero structure is implicit in the 1D calls, so padding is applied to
   the 1D data, and not to the full 3D array").  The result is an
   ``N x N x k`` complex slab, the paper's ``8 * N * N * k`` byte working
   set (Table 1).
2. **Pencil stage** — the slab's ``N^2`` z-pencils (each with only ``k``
   non-zero entries) are transformed in batches of ``B`` (the paper's batch
   parameter, §5.4), giving full-length z spectra batch by batch so the
   ``N^3`` spectrum never exists at once.
3. **Pruned-output inverse** — on the way back, a *partial* inverse DFT
   evaluates the result only at octree-sampled output coordinates (the
   compression callback of Fig 4).  The functions here are the reference
   form: a dense matrix product with the selected DFT rows, ``O(n*m)`` per
   pencil.  The production path (:class:`repro.fft.pruned_plan.PrunedPlan`)
   uses that product only while ``m`` is small; past a measured crossover
   a full inverse FFT followed by a take of the retained coordinates is
   cheaper, and the plan picks per axis from the shape.

Every 1D transform is :mod:`numpy.fft` (pocketfft), called directly; the
library's own work is the staging around it.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ShapeError
from repro.util.lru import WeightedLRU
from repro.util.validation import check_positive_int


def half_length(n: int) -> int:
    """Number of non-redundant coefficients of a length-``n`` real DFT."""
    return n // 2 + 1


def hermitian_weights(n: int) -> np.ndarray:
    """Per-coefficient multiplicities for half-spectrum reductions.

    Summing ``w[g] * Re(X[g] * e^{2i*pi*x*g/n})`` over the ``n//2 + 1``
    stored coefficients of a Hermitian spectrum reproduces the full
    length-``n`` inverse sum: DC (and Nyquist, for even ``n``) count once,
    every interior coefficient stands for itself plus its conjugate mirror.
    """
    w = np.full(half_length(n), 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


class PadScratch:
    """Reusable zero-padded staging buffers for pruned-input transforms.

    Allocating and zero-filling a fresh padded buffer for every pencil
    batch is pure overhead once the placement ``(offset, extent)`` repeats
    — which it does for every batch of the same sub-domain.  A scratch
    keeps one buffer per ``(input shape, axis, dtype kind)`` slot; the pad
    region stays zero across calls, and only a change of placement forces
    the previously written band to be cleared.
    """

    def __init__(self) -> None:
        self._slots: Dict[Tuple, list] = {}

    def padded(self, x: np.ndarray, offset: int, n: int, axis: int) -> np.ndarray:
        """Return a length-``n`` (along ``axis``) buffer with ``x`` placed
        at ``offset`` and zeros elsewhere.  The buffer is reused across
        calls and must be consumed before the next ``padded`` call."""
        extent = x.shape[axis]
        dtype = np.complex128 if np.iscomplexobj(x) else np.float64
        key = (x.shape, axis, dtype)
        shape = list(x.shape)
        shape[axis] = n
        slot = self._slots.get(key)
        if slot is None or slot[0].shape != tuple(shape):
            buf = np.zeros(shape, dtype=dtype)
            slot = [buf, offset, extent]
            self._slots[key] = slot
        else:
            buf, last_offset, last_extent = slot
            if (last_offset, last_extent) != (offset, extent):
                stale = [slice(None)] * buf.ndim
                stale[axis] = slice(last_offset, last_offset + last_extent)
                buf[tuple(stale)] = 0
                slot[1], slot[2] = offset, extent
        sl = [slice(None)] * buf.ndim
        sl[axis] = slice(offset, offset + extent)
        buf[tuple(sl)] = x
        return buf


def _check_pad_bounds(extent: int, offset: int, n: int) -> None:
    if offset < 0 or offset + extent > n:
        raise ShapeError(
            f"data of extent {extent} at offset {offset} exceeds length {n}"
        )


def pruned_input_fft(
    x: np.ndarray,
    offset: int,
    n: int,
    axis: int,
    scratch: Optional[PadScratch] = None,
) -> np.ndarray:
    """FFT along ``axis`` of ``x`` implicitly zero-padded to length ``n``.

    The data occupies indices ``[offset, offset + x.shape[axis])`` of the
    padded axis.  Only a single padded buffer for this one axis is created
    (1D-pencil padding), never the full padded cube; pass a
    :class:`PadScratch` to reuse that buffer across calls.
    """
    x = np.asarray(x)
    n = check_positive_int(n, "n")
    _check_pad_bounds(x.shape[axis], offset, n)
    if scratch is not None:
        return np.fft.fft(scratch.padded(x, offset, n, axis), axis=axis)
    shape = list(x.shape)
    shape[axis] = n
    buf = np.zeros(shape, dtype=np.complex128)
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(offset, offset + x.shape[axis])
    buf[tuple(sl)] = x
    return np.fft.fft(buf, axis=axis)


def pruned_input_rfft(
    x: np.ndarray,
    offset: int,
    n: int,
    axis: int,
    scratch: Optional[PadScratch] = None,
) -> np.ndarray:
    """Real-input variant of :func:`pruned_input_fft`.

    Returns only the ``n//2 + 1`` non-redundant coefficients along
    ``axis`` — the entry stage of the Hermitian fast path, which halves
    the slab working set for real fields.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ShapeError("pruned_input_rfft expects real input")
    n = check_positive_int(n, "n")
    _check_pad_bounds(x.shape[axis], offset, n)
    if scratch is not None:
        return np.fft.rfft(scratch.padded(x, offset, n, axis), axis=axis)
    shape = list(x.shape)
    shape[axis] = n
    buf = np.zeros(shape, dtype=np.float64)
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(offset, offset + x.shape[axis])
    buf[tuple(sl)] = x
    return np.fft.rfft(buf, axis=axis)


def slab_from_subcube(
    sub: np.ndarray,
    corner: Sequence[int],
    n: int,
    scratch: Optional[PadScratch] = None,
) -> np.ndarray:
    """Transform a sub-cube to an ``n x n x k`` slab (x and y stages).

    Returns the complex slab ``S[fx, fy, z]`` where ``z`` indexes the ``k``
    still-spatial planes of the sub-domain (their absolute z position,
    ``corner[2]``, is applied at the pencil stage).  Leading axes of
    ``sub`` (a stack of components over the same box) pass through.
    """
    sub = np.asarray(sub)
    if sub.ndim < 3:
        raise ShapeError(f"sub-domain must be rank 3 or more, got ndim={sub.ndim}")
    cx, cy, _cz = (int(c) for c in corner)
    stage_x = pruned_input_fft(sub, cx, n, axis=-3, scratch=scratch)
    return pruned_input_fft(stage_x, cy, n, axis=-2, scratch=scratch)


def rslab_from_subcube(
    sub: np.ndarray,
    corner: Sequence[int],
    n: int,
    scratch: Optional[PadScratch] = None,
) -> np.ndarray:
    """Half-spectrum slab of a *real* sub-domain: ``(n//2+1) x n x k``.

    The x stage is an rfft (the input is real), so only the non-redundant
    ``fx`` rows are kept; the y stage is the usual complex pruned-input
    FFT.  The full slab is recoverable from 3D Hermitian symmetry
    ``S[-fx, -fy, z] = conj(S[fx, fy, z])``, so downstream stages operate
    on half the pencils — the Hermitian fast path's 2x saving.  Leading
    axes of ``sub`` pass through, as in :func:`slab_from_subcube`.
    """
    sub = np.asarray(sub)
    if sub.ndim < 3:
        raise ShapeError(f"sub-domain must be rank 3 or more, got ndim={sub.ndim}")
    cx, cy, _cz = (int(c) for c in corner)
    stage_x = pruned_input_rfft(sub, cx, n, axis=-3, scratch=scratch)
    return pruned_input_fft(stage_x, cy, n, axis=-2, scratch=scratch)


def pencil_batches(total: int, batch: int) -> Iterator[slice]:
    """Yield contiguous slices covering ``range(total)`` in chunks of ``batch``.

    ``batch`` is the paper's B parameter: how many z-pencils are transformed
    per batched 1D FFT call (§5.4).
    """
    total = check_positive_int(total, "total")
    batch = check_positive_int(batch, "batch")
    for start in range(0, total, batch):
        yield slice(start, min(start + batch, total))


def zstage_batch(
    slab_rows: np.ndarray,
    corner_z: int,
    n: int,
    scratch: Optional[PadScratch] = None,
) -> np.ndarray:
    """Forward z-transform of a batch of pencils from the slab.

    ``slab_rows`` has shape ``(B, k)`` (pencils x non-zero z extent); the
    return value has shape ``(B, n)`` — the full z spectrum of each pencil
    with its data implicitly placed at ``corner_z``.
    """
    slab_rows = np.asarray(slab_rows)
    if slab_rows.ndim != 2:
        raise ShapeError("zstage_batch expects (B, k) pencil batches")
    return pruned_input_fft(slab_rows, corner_z, n, axis=1, scratch=scratch)


def pruned_fft3(
    sub: np.ndarray,
    corner: Sequence[int],
    n: int,
    batch: int | None = None,
) -> np.ndarray:
    """Full ``n^3`` spectrum of a sub-cube embedded at ``corner``.

    Reference-scale helper (materializes the ``n^3`` result) used for
    validation; the production pipeline consumes :func:`zstage_batch`
    batches instead and never allocates the cube.
    """
    sub = np.asarray(sub)
    k = sub.shape[2]
    cz = int(corner[2])
    slab = slab_from_subcube(sub, corner, n)
    if batch is None:
        batch = n * n
    out = np.empty((n, n, n), dtype=np.complex128)
    flat = slab.reshape(n * n, k)
    out_flat = out.reshape(n * n, n)
    for sl in pencil_batches(n * n, batch):
        out_flat[sl] = zstage_batch(flat[sl], cz, n)
    return out


# Partial-iDFT matrices are cached under a digest of the coordinate array
# rather than an lru_cache keyed by a tuple of (possibly thousands of)
# ints: hashing the raw bytes once is far cheaper than tuple-hashing per
# call, and congruent patterns across sub-domains share entries.  Every
# plan cache builds through this one table, from rank and scheduler
# threads alike, so it is thread-safe and bounded by bytes held (64 MiB;
# a full matrix at n=128 is 256 KiB).
_MATRIX_CACHE: "WeightedLRU[np.ndarray]" = WeightedLRU(max_weight=64 << 20)


def _coords_array(coords: Sequence[int], n: int) -> np.ndarray:
    coords = np.ascontiguousarray(coords, dtype=np.intp)
    if coords.ndim != 1:
        raise ShapeError(f"output coords must be 1D, got shape {coords.shape}")
    if coords.size and (int(coords.min()) < 0 or int(coords.max()) >= n):
        raise ShapeError(f"output coords must lie in [0, {n})")
    return coords


def _cached_matrix(kind: str, n: int, coords: np.ndarray) -> np.ndarray:
    key = (kind, n, coords.size, hashlib.sha1(coords.tobytes()).digest())
    mat = _MATRIX_CACHE.get(key)
    if mat is None:
        c = coords.astype(np.float64)[:, None]
        if kind == "full":
            f = np.arange(n, dtype=np.float64)[None, :]
            mat = np.exp(2j * np.pi * c * f / n) / n
        else:  # "hermitian*": weighted half-spectrum rows
            f = np.arange(half_length(n), dtype=np.float64)[None, :]
            mat = np.exp(2j * np.pi * c * f / n) / n
            mat *= hermitian_weights(n)[None, :]
            if kind == "hermitian_real":
                mat = np.concatenate([mat.real, -mat.imag], axis=1)
        mat.setflags(write=False)
        mat = _MATRIX_CACHE.put(key, mat, mat.nbytes)
    return mat


def partial_idft_matrix(n: int, coords: Sequence[int]) -> np.ndarray:
    """Rows of the length-``n`` inverse DFT matrix for output ``coords``.

    ``M[j, f] = exp(+2i*pi*coords[j]*f/n) / n``; applying ``spec @ M.T``
    evaluates the inverse transform only at the sampled coordinates.
    """
    return _cached_matrix("full", n, _coords_array(coords, n))


def hermitian_partial_idft_matrix(n: int, coords: Sequence[int]) -> np.ndarray:
    """Half-spectrum inverse matrix: ``(m, n//2+1)``, conjugate-mirror
    coefficients folded in via :func:`hermitian_weights`.
    ``Re(half_spec @ M.T)`` equals the real full-length partial inverse."""
    return _cached_matrix("hermitian", n, _coords_array(coords, n))


def hermitian_real_idft_matrix(n: int, coords: Sequence[int]) -> np.ndarray:
    """The half-spectrum inverse as one *real* matrix: ``(m, 2*(n//2+1))``.

    With ``M = hermitian_partial_idft_matrix(n, coords)`` this is
    ``[Re M | -Im M]``, so ``Re(M @ Y) = R @ [Re Y ; Im Y]`` — a real
    GEMM with half the multiplies of the complex product whose imaginary
    half would be thrown away.
    """
    return _cached_matrix("hermitian_real", n, _coords_array(coords, n))


def partial_idft(
    spectrum: np.ndarray, coords: Sequence[int], axis: int = -1
) -> np.ndarray:
    """Inverse DFT along ``axis`` evaluated only at output ``coords``.

    This is the pruned-output transform the compression callback performs:
    for ``m = len(coords)`` sampled points it costs ``O(n*m)`` per pencil
    instead of ``O(n log n)`` plus a discard.  Output axis length is ``m``.
    """
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    n = spectrum.shape[axis]
    mat = partial_idft_matrix(n, coords)
    moved = np.moveaxis(spectrum, axis, -1)
    out = moved @ mat.T
    return np.moveaxis(out, -1, axis)


def hermitian_partial_idft(  # repro-lint: disable=DEAD001 oracle of test_fft_pruned_plan.py::TestInverseStrategies
    half_spectrum: np.ndarray, coords: Sequence[int], n: int, axis: int = -1
) -> np.ndarray:
    """Real partial inverse DFT from the ``n//2 + 1`` stored coefficients.

    Valid when the full-length spectrum along ``axis`` is Hermitian (the
    transform of real data); the conjugate mirror half is folded in
    analytically, so the result is real and costs half the multiplies of
    :func:`partial_idft`.
    """
    half_spectrum = np.asarray(half_spectrum, dtype=np.complex128)
    if half_spectrum.shape[axis] != half_length(n):
        raise ShapeError(
            f"half-spectrum length {half_spectrum.shape[axis]} != "
            f"n//2+1 = {half_length(n)} for n={n}"
        )
    mat = hermitian_partial_idft_matrix(n, coords)
    moved = np.moveaxis(half_spectrum, axis, -1)
    out = (moved @ mat.T).real
    return np.moveaxis(out, -1, axis)

