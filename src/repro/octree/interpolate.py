"""Reconstruction of dense fields from octree-sampled data.

The paper's accumulation step (Step 4) exchanges sparse samples and
"interpolation gives us the approximate result of the full convolution".
Reconstruction here is per-cell: each octree cell carries a regular
sub-lattice of samples, so within a cell the natural operator is trilinear
interpolation on that lattice.  ``method="nearest"`` is the cheaper
ablation (paper §5.3 notes the error analysis applies to "popularly used
interpolation methods").

Implementation note: everything about a reconstruction except the sample
values is a function of (pattern geometries, boxes, method), so it is
computed once as a :class:`ReconstructionPlan` and reused by every later
call.  A plan covers a *set* of equal-shaped boxes — a rank's own
sub-domains; one box is the case :func:`reconstruct_box` and the
full-grid accumulation use.  Building a plan finds the boxes each cell
meets in one vectorised pass over the packed metadata, looking its
candidates up on the lattice of the box shape (O(pieces), not cells ×
boxes), drops the cells that meet none, and cuts each survivor into one
*piece* per box it meets; it then groups the pieces, across boxes, by
congruence — same size, same rate, same clipped extent relative to the
cell — because congruent pieces share their three per-axis ``(queries,
samples)`` weight matrices (at most two non-zeros per row).  Applying a
plan gathers each group's samples into one ``(cells, s, s, s)`` block
and contracts it with the three matrices, x then y then z, one matmul
per axis for the whole group, and adds each piece's values through its
slices into its box's slot of one ``(boxes, *shape)`` output.  This is
the block tensor-matrix formulation (many tiny GEMMs lose to one blocked
GEMM with shared operand matrices) applied to trilinear interpolation.
No extrapolation is ever needed because cell lattices are clamped to the
cell faces.

Accumulation applies the same idea one level up.  Interpolation is linear
in the samples, and neighbouring sub-domains' octrees reuse the same
far-field cells, so a plan over several *operands* — fields at their
sub-domain indices, or the partial sums of aligned subtrees of them that a
peer sent (:class:`~repro.octree.treesum.Operand`) — first sums the
samples of each distinct ``(corner, size, rate)`` cell in float64, then
contracts that cell once: at n=64 / k=16 ``banded`` the 64 fields' 8 576
cells are 1 136 distinct ones.  The sum follows one tree order on the
sub-domain index bits (:mod:`repro.octree.treesum`), which a rank's
round-robin share is a subtree of, so however the fields were grouped
into partial sums the adds are the same; a cell only one operand has is
read from it in place.  Each distinct cell belongs to the *layer* of the
first field that holds it; a layer's cells are disjoint, and layers are
added in index order.  None of that order depends on the box, so a
``k^3`` block is bitwise its slice of the full-grid result.  One field is
the degenerate case: one layer, nothing summed.

The x → y → z order is fixed, and is that of the per-cell evaluator this
replaced: floating-point contraction is not associative, so another axis
order changes last bits.  Batching only stacks more rows (or more GEMMs
of the per-cell shape) under the same weight matrix, so each output
element is still the same two-term dot product per axis, evaluated by the
same BLAS routine: results are bitwise what the per-cell loop produced
(``tests/test_octree_reconstruct_plan.py`` keeps that loop as the oracle).
The per-cell rule survives batching across boxes: a piece one x query
wide is contracted alone, as the per-cell evaluator would.  Every
execution mode accumulates through one plan over all its fields — the
full grid in-process, a rank's box set across ranks — and a piece's
values do not depend on the box set it was planned with, which is what
keeps the modes bitwise identical to one another.  Summing before
interpolating moves the result by a few ulps from a per-field sum of
reconstructions.

Error behaviour: trilinear interpolation of a C^2 field sampled at spacing
``h = rate`` carries O(h^2 |f''|) error (Taylor), which is why aggressive
rates far from the sub-domain are safe — the Green's-function tail is
smooth and small out there.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.octree.cell import axis_offsets, samples_per_axis
from repro.octree.compress import CompressedField
from repro.octree.treesum import Operand, TreeSum, check_disjoint
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
    coords = axis_offsets(size, rate)
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
    """Congruent cell pieces contracted together with shared weight
    matrices.

    ``source`` names the value array the cells are read from: an
    operand's index, or ``-1`` for the plan's buffer of summed shared
    cells.  Piece ``p`` lands in box ``box[p]`` of the output at
    ``out_lo[p]``; its extent is the weight matrices' query counts.
    """

    __slots__ = ("source", "s", "wx", "wy_t", "wz_t", "start", "offsets", "slices")

    def __init__(
        self,
        source: int,
        s: int,
        weights: Tuple[np.ndarray, np.ndarray, np.ndarray],
        offsets: np.ndarray,
        box: np.ndarray,
        out_lo: np.ndarray,
    ):
        self.source = source
        self.s = s
        self.wx = weights[0]
        self.wy_t = weights[1].T
        self.wz_t = weights[2].T
        extent = [w.shape[0] for w in weights]
        self.slices = [
            (b, *(slice(lo, lo + q) for lo, q in zip(corner, extent)))
            for b, corner in zip(box.tolist(), out_lo.tolist())
        ]
        # Cells that sit back to back in the value array (always true of
        # a single cell) are read as one view; others are gathered.
        self.start = int(offsets[0])
        contiguous = bool((np.diff(offsets) == s**3).all())
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
    """Everything data-independent about reconstructing a set of
    equal-shaped boxes of the sum of one or more operands.

    Parameters
    ----------
    operands:
        The summands (:class:`~repro.octree.treesum.Operand`: a field, or
        the partial sum of an aligned subtree of fields), their subtrees
        disjoint.  Only their geometry is read.
    corners:
        The boxes' low corners in grid coordinates; box ``b`` is the
        half-open ``[corners[b], corners[b] + shape)``.  One corner is the
        one-box case of :func:`reconstruct_box`.
    shape:
        The shape every box shares.
    nearest:
        Nearest-sample weights instead of trilinear ones.

    A cell that meets several boxes is summed once and cut into one
    *piece* per box it meets; pieces are grouped by congruence across all
    the boxes, so a box set costs one tree sum and about as many chunks as
    one box of it.  The output is one ``(boxes, *shape)`` array.

    Memory is O(intersecting pieces): per piece one value offset and one
    tuple of output slices, per add of a shared cell two offsets, per
    congruent group three weight matrices — never an index per sample or
    per output point.
    """

    def __init__(
        self,
        operands: Sequence[Operand],
        corners: Sequence[Box],
        shape: Box,
        nearest: bool,
    ):
        check_disjoint(operands)
        box_lo = np.array(corners, dtype=np.int64).reshape(-1, 3)
        box_hi = box_lo + np.array(shape, dtype=np.int64)
        self.boxes = len(box_lo)
        # every (operand, cell) that meets a box, in operand then packed
        # order: columns x, y, z, size, rate, operand, value offset, first
        # leaf holding the cell
        hits = []
        for index, op in enumerate(operands):
            meta = op.pattern.table.astype(np.int64)
            sizes = op.pattern.cell_sizes().astype(np.int64)
            met = _meets(meta[:, :3], sizes, box_lo, shape)[0]
            hit = np.flatnonzero(np.bincount(met, minlength=len(meta)))
            hits.append(
                np.column_stack(
                    (
                        meta[hit, :3],
                        sizes[hit],
                        meta[hit, 3],
                        np.full(hit.size, index),
                        meta[hit, 4],
                        op.firsts()[hit],
                    )
                )
            )
        self.chunks: List[_Chunk] = []
        self.tree: Optional[TreeSum] = None
        self.nbytes = 0
        cells = np.concatenate(hits)
        if len(cells) == 0:
            return

        # One distinct cell per (corner, size, rate), summed over the
        # operands holding it in the tree order (a cell one operand holds
        # is read from it in place).  Its layer is the first leaf that
        # holds it; a leaf's cells are disjoint, hence so are a layer's.
        _, first, which = np.unique(
            cells[:, :5], axis=0, return_index=True, return_inverse=True
        )
        which = which.reshape(-1)
        distinct = len(first)
        counts = samples_per_axis(cells[first, 3], cells[first, 4]) ** 3
        nodes = np.array([op.node for op in operands], dtype=np.int64)
        self.tree = TreeSum(
            nodes, which, cells[:, 5], cells[:, 6], counts[which], distinct
        )
        self.nbytes += self.tree.nbytes
        layers = np.full(distinct, np.iinfo(np.int64).max)
        np.minimum.at(layers, which, cells[:, 7])

        # One piece per (distinct cell, box it meets): the cell clipped to
        # the box, written at the box's slot of the output.
        cell, box = _meets(cells[first, :3], cells[first, 3], box_lo, shape)
        pieces = cells[first[cell]]
        cell_lo, sizes, rates = pieces[:, :3], pieces[:, 3], pieces[:, 4]
        source, place = self.tree.source[cell], self.tree.at[cell]
        clip_lo = np.maximum(cell_lo, box_lo[box])
        clip_hi = np.minimum(cell_lo + sizes[:, None], box_hi[box])
        out_lo = clip_lo - box_lo[box]
        # Congruence key: layer, source, then size, rate and the clipped
        # extent relative to the cell — the inputs of the weight matrices.
        # Groups come out in layer order, which is the same for every box;
        # within a group, pieces ascend by their offset in the source.
        keys = np.column_stack(
            (layers[cell], source, sizes, rates, clip_lo - cell_lo, clip_hi - cell_lo)
        )
        unique, inverse = np.unique(keys, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        group_order = np.lexsort((place, inverse))
        bounds = np.searchsorted(inverse[group_order], np.arange(len(unique) + 1))

        samples = samples_per_axis(unique[:, 2], unique[:, 3])
        matrices: Dict[Tuple[int, int, int, int], np.ndarray] = {}
        for g, key in enumerate(unique.tolist()):
            size, rate = key[2], key[3]
            weights = []
            for axis in range(3):
                mkey = (size, rate, key[4 + axis], key[7 + axis])
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
            members = group_order[bounds[g] : bounds[g + 1]]
            for i in range(0, len(members), per_chunk):
                part = members[i : i + per_chunk]
                self.chunks.append(
                    _Chunk(key[1], s, tuple(weights), place[part], box[part], out_lo[part])
                )
                self.nbytes += _CHUNK_OVERHEAD_BYTES + len(part) * (
                    _CELL_OVERHEAD_BYTES + place.itemsize
                )

    @property
    def summed_size(self) -> int:
        """Samples in the buffer of summed cells each call allocates."""
        return self.tree.size if self.tree is not None else 0

    def add_into(self, values: Sequence[np.ndarray], out: np.ndarray) -> None:
        """Add the reconstruction of the sum of the operands whose value
        arrays are ``values`` (plan order) over the boxes into ``out``, of
        shape ``(boxes, *shape)``."""
        if self.tree is None:
            return
        arrays = [*values, self.tree.apply(values)]
        for chunk in self.chunks:
            chunk.add_into(arrays[chunk.source], out)


def _meets(
    corners: np.ndarray, sizes: np.ndarray, box_lo: np.ndarray, shape: Box
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(cell, box)`` index pairs whose extents meet, by cell then box.

    On an axis, a box of width ``w`` meets a cell iff its low corner lies
    in ``(corner - w, corner + size)``.  Boxes are binned on the lattice
    of their shape, so a cell tests only the boxes in the bins that range
    reaches: work and memory are O(cells + candidate pairs), a few per
    piece for boxes on their lattice (a rank's sub-domains), never a
    ``(cells, boxes)`` matrix.  A cell reaching more bins than there are
    boxes tests every box.
    """
    width = np.array(shape, dtype=np.int64)
    ends = corners + sizes[:, None]
    bins = box_lo // width
    origin = bins.min(axis=0)
    extent = bins.max(axis=0) - origin + 1
    keys = np.ravel_multi_index(tuple((bins - origin).T), extent)
    by_bin = np.argsort(keys, kind="stable")
    keys = keys[by_bin]
    first = np.maximum((corners - width + 1) // width - origin, 0)
    last = np.minimum((ends - 1) // width - origin, extent - 1)
    span = np.maximum(last - first + 1, 0)
    reach = span.prod(axis=1)
    few = np.flatnonzero(reach <= len(box_lo))
    # every bin each such cell reaches, then every box in that bin
    cell = np.repeat(few, reach[few])
    step = _ragged_arange(reach[few])
    sy, sz = span[cell, 1], span[cell, 2]
    at = first[cell] + np.column_stack((step // (sy * sz), step // sz % sy, step % sz))
    at = np.ravel_multi_index(tuple(at.T), extent)
    lo = np.searchsorted(keys, at)
    count = np.searchsorted(keys, at, "right") - lo
    box = by_bin[np.repeat(lo, count) + _ragged_arange(count)]
    cell = np.repeat(cell, count)
    many = np.flatnonzero(reach > len(box_lo))
    cell = np.concatenate((cell, np.repeat(many, len(box_lo))))
    box = np.concatenate((box, np.tile(np.arange(len(box_lo)), len(many))))
    lo_b = box_lo[box]
    hit = ((lo_b < ends[cell]) & (lo_b + width > corners[cell])).all(axis=1)
    cell, box = cell[hit], box[hit]
    order = np.lexsort((box, cell))
    return cell[order], box[order]


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``arange(c)`` for each ``c`` in ``counts``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


#: Process-wide plans, shared by every execution mode and keyed on the
#: operands' leaves and geometry *content* (not their identity), the
#: boxes and the method, so congruent patterns — another pipeline's, or a
#: decoded copy — share plans.  Bounded by bytes (64 MiB; the benchmark's
#: workloads hold 1-4) rather than by count, because a rank's plan over
#: its few cut operands is small while a full-grid plan of many fields is
#: a big one.
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


def as_operands(
    fields: "CompressedField | Sequence[CompressedField | Operand] | Mapping[int, CompressedField]",
) -> List[Operand]:
    """The operands a reconstruction sums, ordered by first leaf.

    One field is leaf 0; a mapping's keys are its fields' sub-domain
    indices; a sequence's fields are leaves ``0, 1, ...`` by position
    beside any :class:`~repro.octree.treesum.Operand` it holds.
    """
    if isinstance(fields, CompressedField):
        return [Operand.leaf(0, fields)]
    if isinstance(fields, Mapping):
        items = sorted(fields.items())
    else:
        items = list(enumerate(fields))
    operands = [
        item if isinstance(item, Operand) else Operand.leaf(index, item)
        for index, item in items
    ]
    return sorted(operands, key=lambda op: op.leaves[0])


def reconstruct_box(
    compressed: "CompressedField | Sequence[CompressedField | Operand] | Mapping[int, CompressedField]",
    corner: Sequence[int],
    shape: Sequence[int],
    method: str = "linear",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rebuild only the box ``[corner, corner + shape)`` of a field, or of
    the sum of several.

    This is the accumulation primitive: a worker owning sub-domain ``d``
    reconstructs the sum of every sub-domain's compressed result only over
    its own box — no worker ever materializes the global dense grid.
    ``compressed`` is one field, or the operands of a sum on one grid (see
    :func:`as_operands`: fields keyed by sub-domain index, or partial sums
    of aligned subtrees of them); shared cells are summed in the tree order
    of :mod:`repro.octree.treesum` before they are interpolated (see
    :class:`ReconstructionPlan`).  Passing ``out`` adds the reconstruction
    into it in place.  It is the one-box case of :func:`reconstruct_boxes`.
    """
    shape = tuple(int(s) for s in shape)
    if out is not None and out.shape != shape:
        raise ShapeError(f"out shape {out.shape} != box shape {shape}")
    boxes = reconstruct_boxes(
        compressed, [corner], shape, method, None if out is None else out[None]
    )
    return boxes[0] if out is None else out


def reconstruct_boxes(
    compressed: "CompressedField | Sequence[CompressedField | Operand] | Mapping[int, CompressedField]",
    corners: Sequence[Sequence[int]],
    shape: Sequence[int],
    method: str = "linear",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rebuild the equal-shaped boxes ``[corners[b], corners[b] + shape)``
    of a field, or of the sum of several, as one ``(boxes, *shape)`` array.

    ``compressed`` is as for :func:`reconstruct_box`; passing ``out`` adds
    into it in place.  The first call for a (operand geometries, corners,
    shape, method) builds its :class:`ReconstructionPlan`; later calls
    only apply it: one tree sum and one pass over the congruent groups for
    the whole box set.
    """
    if method not in ("linear", "nearest"):
        raise ConfigurationError(f"method must be 'linear' or 'nearest', got {method!r}")
    operands = as_operands(compressed)
    if not operands:
        raise ConfigurationError("need at least one compressed field")
    n = operands[0].pattern.n
    for op in operands:
        if op.pattern.n != n:
            raise ConfigurationError(
                f"mixed grid sizes in accumulation: {op.pattern.n} vs {n}"
            )
    shape = tuple(int(s) for s in shape)
    los = tuple(tuple(int(c) for c in corner) for corner in corners)
    for lo in los:
        hi = tuple(a + s for a, s in zip(lo, shape))
        if len(lo) != 3 or any(a < 0 or b > n or a >= b for a, b in zip(lo, hi)):
            raise ShapeError(f"box [{lo}, {hi}) outside grid of size {n}")

    full = (len(los), *shape)
    if out is None:
        out = np.zeros(full, dtype=np.float64)
    elif out.shape != full:
        raise ShapeError(f"out shape {out.shape} != boxes shape {full}")
    if not los:
        return out
    nearest = method == "nearest"
    key = (tuple(op.key for op in operands), los, shape, nearest)
    plan = _PLANS.get(key)
    if plan is None:
        plan = ReconstructionPlan(operands, los, shape, nearest)
        plan = _PLANS.put(key, plan, plan.nbytes)
    plan.add_into([op.field.values for op in operands], out)
    return out
