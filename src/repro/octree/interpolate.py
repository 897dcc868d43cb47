"""Reconstruction of dense fields from octree-sampled data.

The paper's accumulation step (Step 4) exchanges sparse samples and
"interpolation gives us the approximate result of the full convolution".
Reconstruction here is per-cell: each octree cell carries a regular
sub-lattice of samples, so within a cell the natural operator is trilinear
interpolation on that lattice.  ``method="nearest"`` is the cheaper
ablation (paper §5.3 notes the error analysis applies to "popularly used
interpolation methods").

Implementation note: everything about a reconstruction except the sample
values is a function of (pattern geometry, box, method), so it is computed
once as a :class:`ReconstructionPlan` and reused by every later call.
Building a plan clips all cells against the box in one vectorised pass
over the packed metadata and drops the ones that miss it, then groups the
survivors by congruence — same size, same rate, same clipped extent
relative to the cell — because congruent cells share their three per-axis
``(queries, samples)`` weight matrices (at most two non-zeros per row).
Applying a plan gathers each group's samples into one ``(cells, s, s, s)``
block and contracts it with the three matrices, x then y then z, one
matmul per axis for the whole group, and adds each cell's values into the
output through its precomputed slices.  This is the block tensor-matrix
formulation (many tiny GEMMs lose to one blocked GEMM with shared operand
matrices) applied to trilinear interpolation.  No extrapolation is ever
needed because cell lattices are clamped to the cell faces.

The x → y → z order is fixed, and is that of the per-cell evaluator this
replaced: floating-point contraction is not associative, so another axis
order changes last bits.  Batching only stacks more rows (or more GEMMs
of the per-cell shape) under the same weight matrix, so each output
element is still the same two-term dot product per axis, evaluated by the
same BLAS routine: results are bitwise what the per-cell loop produced
(``tests/test_octree_reconstruct_plan.py`` keeps that loop as the oracle).
Every execution mode reconstructs through :func:`reconstruct_box`, hence
through the same plans, which is what keeps them bitwise identical to one
another.

Error behaviour: trilinear interpolation of a C^2 field sampled at spacing
``h = rate`` carries O(h^2 |f''|) error (Taylor), which is why aggressive
rates far from the sub-domain are safe — the Green's-function tail is
smooth and small out there.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.octree.cell import METADATA_INTS_PER_CELL, OctreeCell, _samples_per_axis_vec
from repro.octree.compress import CompressedField
from repro.octree.sampling import SamplingPattern
from repro.util.lru import WeightedLRU

Box = Tuple[int, int, int]


def _axis_weights(
    coords: np.ndarray, query: np.ndarray, nearest: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis interpolation setup: lower index, upper index, weight.

    Returns ``(lo, hi, t)`` such that the 1D interpolant is
    ``(1 - t) * f[lo] + t * f[hi]``; for ``nearest``, ``t`` is rounded to
    {0, 1}.  Queries are assumed inside ``[coords[0], coords[-1]]`` (cell
    lattices are clamped to cell faces, so this always holds).
    """
    if coords.size == 1:
        zeros = np.zeros(query.shape, dtype=np.intp)
        return zeros, zeros, np.zeros(query.shape)
    lo = np.searchsorted(coords, query, side="right") - 1
    np.clip(lo, 0, coords.size - 2, out=lo)
    hi = lo + 1
    span = coords[hi] - coords[lo]
    t = (query - coords[lo]) / span
    if nearest:
        t = np.round(t)
    return lo, hi, t


def _axis_weight_matrix(
    coords: np.ndarray, query: np.ndarray, nearest: bool
) -> np.ndarray:
    """Dense ``(len(query), len(coords))`` 1D interpolation matrix.

    Row ``i`` holds weight ``1 - t`` at column ``lo[i]`` and ``t`` at
    ``hi[i]`` (a degenerate axis collapses to a single weight-1 column),
    so applying the matrix evaluates the 1D interpolant at every query.
    """
    lo, hi, t = _axis_weights(coords, query, nearest)
    w = np.zeros((query.size, coords.size))
    rows = np.arange(query.size)
    np.add.at(w, (rows, lo), 1.0 - t)
    np.add.at(w, (rows, hi), t)
    return w


def _cell_axis_weights(
    size: int, rate: int, start: int, stop: int, nearest: bool
) -> np.ndarray:
    """Weight matrix of one cell axis for queries ``[start, stop)``.

    Coordinates are relative to the cell corner: weights depend on
    differences only, and those are exact in float64, so congruent cells
    anywhere in the grid share the matrix bit for bit.
    """
    coords = OctreeCell(corner=(0, 0, 0), size=size, rate=rate).axis_coords(0)
    query = np.arange(start, stop, dtype=np.float64)
    return _axis_weight_matrix(coords.astype(np.float64), query, nearest)


#: A congruent group is applied in chunks whose gathered block and
#: interpolated values each stay within this many float64 (256 KiB), so a
#: plan's temporaries are bounded by one chunk and stay cache-resident.
#: A cell larger than this forms a chunk of its own: it is flop-bound, its
#: samples are read as a view, and batching it would only add copies.
_CHUNK_POINTS = 1 << 15

# Rough CPython sizes, for the plan table's byte accounting (``nbytes``).
_CELL_OVERHEAD_BYTES = 400  # a tuple of three slices and their ints
_CHUNK_OVERHEAD_BYTES = 512  # the chunk object, its list and array headers


class _Chunk:
    """Congruent cells contracted together with shared weight matrices."""

    __slots__ = ("s", "wx", "wy_t", "wz_t", "start", "offsets", "slices")

    def __init__(
        self,
        s: int,
        weights: Tuple[np.ndarray, np.ndarray, np.ndarray],
        offsets: np.ndarray,
        slices: List[Tuple[slice, slice, slice]],
    ):
        self.s = s
        self.wx = weights[0]
        self.wy_t = weights[1].T
        self.wz_t = weights[2].T
        self.slices = slices
        # Cells that sit back to back in the value array (always true of
        # a single cell) are read as one view; others are gathered.
        # Offsets ascend by at least a cell's s^3 samples, so the cells
        # are back to back exactly when the whole span is that tight.
        self.start = int(offsets[0])
        contiguous = int(offsets[-1]) - self.start == (len(offsets) - 1) * s**3
        self.offsets: Optional[np.ndarray] = None if contiguous else offsets

    def add_into(self, values: np.ndarray, out: np.ndarray) -> None:
        s = self.s
        cells = len(self.slices)
        qx = self.wx.shape[0]
        qy = self.wy_t.shape[1]
        if self.offsets is None:
            block = values[self.start : self.start + cells * s**3]
        else:
            block = values[self.offsets[:, None] + np.arange(s**3)]
        # Separable contraction, axis by axis; the transposes make the
        # contracted axis last so each stage is one (rows, s) @ (s, q).
        if cells == 1:
            vals = np.dot(self.wx, block.reshape(s, s * s))
        else:
            vals = np.matmul(self.wx, block.reshape(cells, s, s * s))
        vals = vals.reshape(cells * qx, s, s).transpose(0, 2, 1)
        vals = np.dot(vals.reshape(cells * qx * s, s), self.wy_t)
        vals = vals.reshape(cells * qx, s, qy).transpose(0, 2, 1)
        vals = np.dot(vals.reshape(cells * qx * qy, s), self.wz_t)
        vals = vals.reshape(cells, qx, qy, -1)
        for cell_slices, cell_vals in zip(self.slices, vals):
            target = out[cell_slices]
            np.add(target, cell_vals, out=target)


class ReconstructionPlan:
    """Everything data-independent about reconstructing one box.

    Parameters
    ----------
    pattern:
        The sampling pattern whose cells carry the samples.
    lo, hi:
        The half-open box ``[lo, hi)`` in grid coordinates.
    nearest:
        Nearest-sample weights instead of trilinear ones.

    Memory is O(intersecting cells): per cell one value offset and one
    tuple of output slices, per congruent group three weight matrices —
    never an index per sample or per output point.
    """

    def __init__(self, pattern: SamplingPattern, lo: Box, hi: Box, nearest: bool):
        meta = pattern.metadata().reshape(-1, METADATA_INTS_PER_CELL).astype(np.int64)
        sizes = pattern.cell_sizes().astype(np.int64)
        corners = meta[:, :3]
        box_lo = np.array(lo, dtype=np.int64)
        clip_lo = np.maximum(corners, box_lo)
        clip_hi = np.minimum(corners + sizes[:, None], np.array(hi, dtype=np.int64))
        hit = np.nonzero((clip_lo < clip_hi).all(axis=1))[0]
        self.chunks: List[_Chunk] = []
        self.nbytes = 0
        if hit.size == 0:
            return

        corners, sizes = corners[hit], sizes[hit]
        rates, offsets = meta[hit, 3], meta[hit, 4]
        clip_lo, clip_hi = clip_lo[hit], clip_hi[hit]
        out_lo, out_hi = clip_lo - box_lo, clip_hi - box_lo
        # Congruence key: size, rate and the clipped extent relative to
        # the cell — the inputs of the three weight matrices.
        keys = np.column_stack((sizes, rates, clip_lo - corners, clip_hi - corners))
        unique, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")  # packed order within a group
        bounds = np.searchsorted(inverse[order], np.arange(len(unique) + 1))
        samples = _samples_per_axis_vec(unique[:, 0], unique[:, 1])

        matrices: Dict[Tuple[int, int, int, int], np.ndarray] = {}
        for g, key in enumerate(unique.tolist()):
            size, rate = key[0], key[1]
            weights = []
            for axis in range(3):
                mkey = (size, rate, key[2 + axis], key[5 + axis])
                matrix = matrices.get(mkey)
                if matrix is None:
                    matrix = matrices[mkey] = _cell_axis_weights(*mkey, nearest)
                    self.nbytes += matrix.nbytes
                weights.append(matrix)
            s = int(samples[g])
            points = max(s**3, int(np.prod([w.shape[0] for w in weights])))
            # A single x query is also applied cell by cell: one cell's
            # reshapes are then views, not copies, and BLAS reads a view
            # through another kernel whose rounding a batch cannot match.
            alone = weights[0].shape[0] == 1
            per_chunk = 1 if alone else max(1, _CHUNK_POINTS // points)
            members = order[bounds[g] : bounds[g + 1]]
            for i in range(0, len(members), per_chunk):
                part = members[i : i + per_chunk]
                slices = [
                    (slice(x0, x1), slice(y0, y1), slice(z0, z1))
                    for (x0, y0, z0), (x1, y1, z1) in zip(
                        out_lo[part].tolist(), out_hi[part].tolist()
                    )
                ]
                self.chunks.append(_Chunk(s, tuple(weights), offsets[part], slices))
                self.nbytes += (
                    _CHUNK_OVERHEAD_BYTES
                    + len(part) * (_CELL_OVERHEAD_BYTES + offsets.itemsize)
                )

    def add_into(self, values: np.ndarray, out: np.ndarray) -> None:
        """Add the reconstruction of ``values`` over the box into ``out``."""
        for chunk in self.chunks:
            chunk.add_into(values, out)


#: Process-wide plans, shared by every execution mode and keyed on the
#: pattern's geometry *content* (not its identity), the box and the
#: method, so congruent patterns — another pipeline's, or a decoded copy —
#: share plans.  Bounded by bytes (64 MiB; the benchmark's workloads hold
#: 1-4) rather than by count, because the working set is fields x boxes
#: (a rank owning 32 boxes of a 64-field job needs 2 048 small plans)
#: while a full-grid plan of a large pattern is one big one.
_PLANS: "WeightedLRU[ReconstructionPlan]" = WeightedLRU(max_weight=64 << 20)


def reconstruct_dense(
    compressed: CompressedField, method: str = "linear"
) -> np.ndarray:
    """Rebuild the full ``n^3`` field from a compressed representation.

    Parameters
    ----------
    compressed:
        Pattern + sample values.
    method:
        ``"linear"`` (trilinear, default) or ``"nearest"``.
    """
    return reconstruct_box(
        compressed, (0, 0, 0), (compressed.pattern.n,) * 3, method=method
    )


def reconstruct_box(
    compressed: CompressedField,
    corner: Sequence[int],
    shape: Sequence[int],
    method: str = "linear",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rebuild only the box ``[corner, corner + shape)`` of the field.

    This is the accumulation primitive: a worker owning sub-domain ``d``
    reconstructs each *other* worker's compressed result only over its own
    box before summing — no worker ever materializes the global dense grid.
    Passing ``out`` adds the reconstruction into it in place (octree cells
    are disjoint, so each output element receives exactly one add per
    field), letting the accumulation loop skip a dense temporary per field.
    The first call for a (pattern geometry, box, method) builds its
    :class:`ReconstructionPlan`; later calls only apply it.
    """
    if method not in ("linear", "nearest"):
        raise ConfigurationError(f"method must be 'linear' or 'nearest', got {method!r}")
    n = compressed.pattern.n
    lo = tuple(int(c) for c in corner)
    hi = tuple(int(c) + int(s) for c, s in zip(corner, shape))
    if any(a < 0 or b > n or a >= b for a, b in zip(lo, hi)):
        raise ShapeError(f"box [{lo}, {hi}) outside grid of size {n}")

    shape = tuple(int(s) for s in shape)
    if out is None:
        out = np.zeros(shape, dtype=np.float64)
    elif out.shape != shape:
        raise ShapeError(f"out shape {out.shape} != box shape {shape}")
    nearest = method == "nearest"
    key = (compressed.pattern.geometry_key, lo, hi, nearest)
    plan = _PLANS.get(key)
    if plan is None:
        plan = ReconstructionPlan(compressed.pattern, lo, hi, nearest)
        plan = _PLANS.put(key, plan, plan.nbytes)
    plan.add_into(compressed.values, out)
    return out
