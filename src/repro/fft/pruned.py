"""Pruned staged 3D transforms: the paper's local FFT structure (Step 2).

A ``k x k x k`` sub-domain embedded (conceptually) at ``corner`` inside an
``N^3`` zero grid has a full-grid DFT, but the zeros never need to be
materialized:

1. **Slab stage** — 1D FFTs along x then y, padding only the 1D pencils
   ("Zero structure is implicit in the 1D calls, so padding is applied to
   the 1D data, and not to the full 3D array").  The input is real, so
   the x stage is an rfft and the result is the ``(N//2 + 1) x N x k``
   half slab, about half the paper's ``8 * N * N * k`` byte working set
   (Table 1).
2. **Pencil stage** — the slab's z-pencils (each with only ``k``
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
    keeps one buffer per ``(trailing input shape, axis, n, dtype kind)``
    slot, with the index of the band last written; the pad region stays
    zero across calls, and only a change of offset forces that band to be
    cleared.  When ``axis`` is not the leading one, a batch with fewer
    leading rows (the last, shorter pencil batch of a sub-domain) is
    served a leading-row view of the slot's buffer, not a slot of its own.
    """

    def __init__(self) -> None:
        self._slots: Dict[Tuple, list] = {}

    def padded(self, x: np.ndarray, offset: int, n: int, axis: int) -> np.ndarray:
        """Return a length-``n`` (along ``axis``) buffer with the array
        ``x`` placed at ``offset`` and zeros elsewhere.  The buffer is
        reused across calls and must be consumed before the next
        ``padded`` call; the caller checks that ``x`` fits."""
        is_complex = x.dtype.kind == "c"
        axis %= x.ndim
        key = (x.shape[1:] if axis else x.shape, axis, n, is_complex)
        slot = self._slots.get(key)
        if slot is None or len(slot[0]) < len(x):
            shape = list(x.shape)
            shape[axis] = n
            dtype = np.complex128 if is_complex else np.float64
            slot = self._slots[key] = [np.zeros(shape, dtype=dtype), None, None]
        buf, last_offset, band = slot
        if offset != last_offset:
            if band is not None:
                buf[band] = 0
            index = [slice(None)] * buf.ndim
            index[axis] = slice(offset, offset + x.shape[axis])
            band = slot[2] = tuple(index)
            slot[1] = offset
        if axis and len(x) < len(buf):
            buf = buf[: len(x)]
        buf[band] = x
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
    scratch = scratch if scratch is not None else PadScratch()
    return np.fft.fft(scratch.padded(x, offset, n, axis), axis=axis)


def pruned_input_rfft(
    x: np.ndarray,
    offset: int,
    n: int,
    axis: int,
    scratch: Optional[PadScratch] = None,
) -> np.ndarray:
    """Real-input variant of :func:`pruned_input_fft`.

    Returns only the ``n//2 + 1`` non-redundant coefficients along
    ``axis`` — the entry stage of the half-spectrum slab, which halves
    the slab working set for real fields.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ShapeError("pruned_input_rfft expects real input")
    n = check_positive_int(n, "n")
    _check_pad_bounds(x.shape[axis], offset, n)
    scratch = scratch if scratch is not None else PadScratch()
    return np.fft.rfft(scratch.padded(x, offset, n, axis), axis=axis)


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
    on half the pencils, half the work of a full complex slab.  ``z``
    indexes the ``k`` still-spatial planes of the sub-domain (their
    absolute z position, ``corner[2]``, is applied at the pencil stage),
    and leading axes of ``sub`` (a stack of components over the same box)
    pass through.
    """
    sub = np.asarray(sub)
    if sub.ndim < 3:
        raise ShapeError(f"sub-domain must be rank 3 or more, got ndim={sub.ndim}")
    cx, cy, _cz = (int(c) for c in corner)
    stage_x = pruned_input_rfft(sub, cx, n, axis=-3, scratch=scratch)
    return pruned_input_fft(stage_x, cy, n, axis=-2, scratch=scratch)


#: Bytes of complex z spectra one pencil batch holds when the caller names
#: no ``B``: the budget :func:`default_pencil_batch` sizes it from.  256 KiB
#: gives B = 512 at n=32, 256 at n=64 and 128 at n=128, where a larger B
#: stops paying (the warm ``run_serial`` sweep in EXPERIMENTS.md E8).
PENCIL_BATCH_BYTES = 256 << 10


def default_pencil_batch(n: int, components: int = 1) -> int:
    """The pencil batch ``B`` of a convolution that names none.

    As many pencils as fit :data:`PENCIL_BATCH_BYTES` of ``components``
    stacked complex spectra of length ``n``, but at least ``n`` and at most
    the ``(n//2 + 1) * n`` pencils of the half slab.  Each z-stage batch is
    one padded FFT, multiply and inverse whatever its size, so on small
    grids a byte budget makes a few large calls where ``B = n`` made
    hundreds of small ones.  A pure function of ``(n, components)``: every
    process computing part of one result picks the same ``B``, and ``B``
    only schedules work (results are bitwise the same at any ``B`` of two
    pencils or more; the rule never leaves a batch of one).
    """
    fit = PENCIL_BATCH_BYTES // (16 * n * components)
    return max(n, min(fit, half_length(n) * n))


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

    ``slab_rows`` is a ``(B, k)`` array (pencils x non-zero z extent); the
    return value has shape ``(B, n)`` — the full z spectrum of each pencil
    with its data implicitly placed at ``corner_z``.  This runs once per
    pencil batch, so it checks only the batch's rank and placement and
    goes straight to the pad buffer, not through
    :func:`pruned_input_fft`'s argument checks.
    """
    if slab_rows.ndim != 2:
        raise ShapeError("zstage_batch expects (B, k) pencil batches")
    _check_pad_bounds(slab_rows.shape[1], corner_z, n)
    scratch = scratch if scratch is not None else PadScratch()
    return np.fft.fft(scratch.padded(slab_rows, corner_z, n, 1), axis=1)


# Partial-iDFT matrices are cached under a digest of the coordinate array
# rather than an lru_cache keyed by a tuple of (possibly thousands of)
# ints: hashing the raw bytes once is far cheaper than tuple-hashing per
# call, and congruent patterns across sub-domains share entries.  Every
# plan builds through this one table, from rank and scheduler threads
# alike, so it is thread-safe and bounded by bytes held (64 MiB; a full
# matrix at n=128 is 256 KiB).  The pencil index pair of each ``n`` lives
# here too.
_MATRIX_CACHE: "WeightedLRU[np.ndarray]" = WeightedLRU(max_weight=64 << 20)


def pencil_indices(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(fx, fy)`` frequency index of each of the ``(n//2 + 1) * n``
    half-slab pencils, in the slab's flat order: one read-only pair per
    ``n``, shared by every caller."""
    key = ("pencils", n)
    pair = _MATRIX_CACHE.get(key)
    if pair is None:
        pair = np.divmod(np.arange(half_length(n) * n, dtype=np.intp), n)
        for index in pair:
            index.setflags(write=False)
        pair = _MATRIX_CACHE.put(key, pair, 2 * pair[0].nbytes)
    return pair


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

