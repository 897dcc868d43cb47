"""Accumulation: the single sparse exchange plus interpolation (Step 4).

"Accumulating sub-domain results by interpolation and minimal data
communication avoids all-to-all between FFT stages.  Only sparse samples
are exchanged at the end of the computation."  (paper §3.1)

Two entry points, one per runtime, both one
:class:`~repro.octree.interpolate.ReconstructionPlan` over all the fields
and a set of boxes — the plan sums the cells the fields share, in the one
tree order on sub-domain indices (:mod:`repro.octree.treesum`), before
interpolating them, so a cell is contracted once however many sub-domains'
octrees hold it:

- :func:`accumulate_global` — in-process (``run_serial``, driver-side
  recovery): one :func:`~repro.octree.interpolate.reconstruct_box`, the
  whole grid as the one box.
- :func:`accumulate_boxes` — the rank-side half of the distributed step
  (:func:`repro.dist.worker.rank_main`, after the single sparse exchange):
  one :func:`~repro.octree.interpolate.reconstruct_boxes` over the set of
  a rank's *own* sub-domain boxes — one tree sum, each cell cut into a
  piece per box it meets, congruent pieces contracted together across
  boxes — so no rank ever holds the global dense grid.
  :func:`repro.dist.launcher.assemble_blocks` places the blocks.

What a rank needs of a peer's field for :func:`accumulate_boxes` is
:func:`cells_touching_rank`: the cells whose extent meets one of its
boxes.  Interpolation reads only a cell's own lattice, so those whole
cells are exactly the halo.  What a rank needs of several of a peer's
fields is :func:`union_touching_rank`: the distinct cells among them, each
the tree sum of its holders — the reduce-before-send of the exchange,
which a sender can only do over an aligned subtree of the tree.  The
exchange ships nothing else, and only values, since both ends derive the
cells.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.core.decomposition import SubDomain
from repro.errors import ConfigurationError
from repro.octree.cell import samples_per_axis
from repro.octree.compress import CellSubset, CompressedField
from repro.octree.interpolate import as_operands, reconstruct_box, reconstruct_boxes
from repro.octree.sampling import SamplingPattern
from repro.octree.treesum import LEAF_BITS, Operand, TreeSum, chunked, group_rows
from repro.util.lru import WeightedLRU


def accumulate_global(
    fields: Union[Mapping[int, CompressedField], Sequence[CompressedField]],
    method: str = "linear",
) -> np.ndarray:
    """The dense sum of the reconstructions of all compressed sub-domain
    results: one :func:`~repro.octree.interpolate.reconstruct_box` over the
    whole grid.  ``fields`` maps sub-domain index to field (a sequence is
    taken as indices ``0, 1, ...``); the index decides where each field
    enters the summation tree."""
    if not fields:
        raise ConfigurationError("need at least one compressed field")
    operands = as_operands(fields)
    n = operands[0].pattern.n
    return reconstruct_box(operands, (0, 0, 0), (n, n, n), method=method)


def accumulate_boxes(
    operands: Union[Mapping[int, CompressedField], Iterable[Operand]],
    targets: Iterable[SubDomain],
    method: str = "linear",
) -> Dict[int, np.ndarray]:
    """Accumulate every operand over each target sub-domain's own box.

    ``operands`` are fields keyed by sub-domain index, whole or cut to the
    cells that touch the targets (:func:`cells_touching_rank`), or
    :class:`~repro.octree.treesum.Operand` s — a rank's own leaves and the
    partial sums its peers sent (:func:`union_touching_rank`).  The blocks
    are one :func:`~repro.octree.interpolate.reconstruct_boxes` of them
    over the targets' box set, whose one plan sums shared cells once, in
    the one tree order on sub-domain indices, so a block is bitwise the
    matching slice of :func:`accumulate_global` over the leaves, whichever
    rank computed it, whichever partials it was sent and whatever order
    they arrived in.  Returns the dense ``k^3`` block per target, keyed by
    sub-domain index: views of one ``(targets, k, k, k)`` array.
    """
    targets = list(targets)
    sizes = {target.size for target in targets}
    if len(sizes) > 1:
        raise ConfigurationError(f"targets of several sizes {sorted(sizes)}")
    size = sizes.pop() if sizes else 0
    ordered = as_operands(operands if isinstance(operands, Mapping) else list(operands))
    shape = (size,) * 3
    out = np.zeros((len(targets), *shape), dtype=np.float64)
    if ordered and targets:
        reconstruct_boxes(ordered, [t.corner for t in targets], shape, method, out)
    return {target.index: block for target, block in zip(targets, out)}


#: Cell subsets by ``(pattern geometry, k, ranks, rank)``, beside the
#: reconstruction plans and for the same reason: a sender cuts the same value
#: runs from every warm job's fields, and a receiver pairs the same subset
#: pattern with the values it is sent, so the plans keyed on that pattern
#: keep hitting.  Weighed by :attr:`CellSubset.derived_nbytes`, bounded at
#: 64 MiB (a banded n=64 / k=16 subset at P=2 weighs about 0.18 MB).
_SUBSETS: "WeightedLRU[CellSubset]" = WeightedLRU(max_weight=64 << 20)


def cells_touching_rank(
    pattern: SamplingPattern, k: int, num_ranks: int, rank: int
) -> CellSubset:
    """The cells of ``pattern`` whose extent meets a box ``rank`` owns.

    Boxes are the ``k^3`` sub-domains of the pattern's grid, owned
    round-robin by index (:meth:`~repro.core.decomposition
    .DomainDecomposition.assign_round_robin`), so the subset is a pure
    function of the pattern's geometry, ``k``, ``num_ranks`` and ``rank``:
    every rank computes the same one with no negotiation — the sender to
    cut the values it sends, the receiver to know which cells they fill.
    The subset is empty (no cells, no runs) when no cell touches the
    rank's boxes.
    """
    key = (pattern.geometry_key, k, num_ranks, rank)
    subset = _SUBSETS.get(key)
    if subset is None:
        subset = CellSubset.of(pattern, _touches_rank(pattern, k, num_ranks, rank))
        subset = _SUBSETS.put(key, subset, subset.derived_nbytes)
    return subset


def _touches_rank(
    pattern: SamplingPattern, k: int, num_ranks: int, rank: int
) -> np.ndarray:
    """Per cell: does its extent meet any ``k^3`` box ``rank`` owns?"""
    m = pattern.n // k
    owned = (np.arange(m**3) % num_ranks == rank).reshape(m, m, m)
    # summed-area table: table[a, b, c] = owned boxes in [0, a) x [0, b) x [0, c)
    table = np.zeros((m + 1,) * 3, dtype=np.int64)
    table[1:, 1:, 1:] = owned.cumsum(0).cumsum(1).cumsum(2)
    corners = pattern.table[:, :3].astype(np.int64)
    lo = corners // k
    hi = (corners + pattern.cell_sizes()[:, None] - 1) // k + 1
    count = np.zeros(len(corners), dtype=np.int64)
    for corner in range(8):
        picks = [hi[:, axis] if corner >> axis & 1 else lo[:, axis] for axis in range(3)]
        sign = (-1) ** (3 - bin(corner).count("1"))
        count += sign * table[picks[0], picks[1], picks[2]]
    return count > 0


#: Per hit of a union: its cell number, and at most one add and one gather,
#: each two int64 offsets and an op object of at most 512 B.
_HIT_BYTES = 8 + 2 * (2 * 8 + 512)


class CellUnion:
    """The distinct cells of several fields (``leaves``, ascending
    sub-domain indices) that touch one rank's boxes: what one exchange
    entry over those fields carries to that rank.

    ``pattern`` holds the cells ordered by the first leaf that holds each,
    then by that leaf's packed order, with cumulative counts re-packed;
    ``cells_per_leaf`` counts the cells each leaf holds first.  The union's
    values (:meth:`values`) are, cell by cell, the sum of the holding
    fields' samples in the tree order of :mod:`repro.octree.treesum`, so a
    receiver pairing ``pattern`` with them holds the partial sum of the
    leaves' subtree (:meth:`operand`).  One leaf's union is its
    :class:`~repro.octree.compress.CellSubset`, read in place.
    """

    def __init__(
        self,
        patterns: Sequence[SamplingPattern],
        leaves: Sequence[int],
        k: int,
        num_ranks: int,
        rank: int,
    ):
        self.leaves = tuple(int(leaf) for leaf in leaves)
        if len(self.leaves) == 1:
            self.subset = cells_touching_rank(patterns[0], k, num_ranks, rank)
            self.pattern = self.subset.pattern
            self.cells_per_leaf = (self.pattern.num_cells,)
            return
        self.subset = None
        # every (leaf, touching cell): columns x, y, z, size, rate, leaf
        # position, value offset in that leaf's field
        hits = []
        for i, pattern in enumerate(patterns):
            keep = np.flatnonzero(_touches_rank(pattern, k, num_ranks, rank))
            table = pattern.table[keep].astype(np.int64)
            hits.append(
                np.column_stack(
                    (table[:, :3], pattern.sizes[keep], table[:, 3], np.full(keep.size, i), table[:, 4])
                )
            )
        cells = np.concatenate(hits)
        _, first, which = np.unique(
            cells[:, :5], axis=0, return_index=True, return_inverse=True
        )
        # canonical order: a cell's first occurrence, which is its first
        # holding leaf, then that leaf's packed order
        order = np.argsort(first)
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        self._hits = cells
        self._which = renumber[which.reshape(-1)]
        first = first[order]
        counts = samples_per_axis(cells[first, 3], cells[first, 4]) ** 3
        table = np.column_stack(
            (cells[first, :3], cells[first, 4], np.cumsum(counts) - counts)
        )
        self.pattern = SamplingPattern(
            n=patterns[0].n,
            table=table,
            sizes=cells[first, 3],
            subdomain_corner=patterns[0].subdomain_corner,
            subdomain_size=patterns[0].subdomain_size,
        )
        self._counts = counts
        self.cells_per_leaf = tuple(
            np.bincount(cells[first, 5], minlength=len(self.leaves)).tolist()
        )

    @property
    def num_cells(self) -> int:
        return self.pattern.num_cells

    @property
    def sample_count(self) -> int:
        return self.pattern.sample_count

    @cached_property
    def _sums(self) -> Tuple[TreeSum, List[tuple]]:
        """The sender's side: the tree sum of the shared cells, and the
        gathers that lay every cell's sum out in union order, as
        ``(source, count, from offsets, to offsets)``."""
        nodes = np.array([(leaf, LEAF_BITS) for leaf in self.leaves], dtype=np.int64)
        cells, which, counts = self._hits, self._which, self._counts
        tree = TreeSum(
            nodes, which, cells[:, 5], cells[:, 6], counts[which], len(counts)
        )
        starts = self.pattern.table[:, 4].astype(np.int64)
        gathers = []
        for (count, source), members in group_rows(np.column_stack((counts, tree.source))):
            for part in chunked(members, count):
                gathers.append((source, count, tree.at[part], starts[part]))
        return tree, gathers

    @property
    def derived_nbytes(self) -> int:
        """Upper bound of the bytes held: the union pattern's, its hits and,
        once a sender derives them, its adds and gathers — at most one of
        each per hit, two offsets and an op object apiece."""
        if self.subset is not None:
            return self.subset.derived_nbytes
        return self.pattern.derived_nbytes + self._hits.nbytes + len(self._which) * _HIT_BYTES

    def values(self, fields: Sequence[np.ndarray]) -> List[np.ndarray]:
        """The union's values from its leaves' whole value arrays (one
        leaf: views of them, at any precision; several: one float64 array
        of the tree sums)."""
        if self.subset is not None:
            return self.subset.value_runs(fields[0])
        tree, gathers = self._sums
        arrays = [*fields, tree.apply(fields)]
        out = np.empty(self.sample_count)
        for source, count, src, dst in gathers:
            if len(src) == 1:
                out[dst[0] : dst[0] + count] = arrays[source][src[0] : src[0] + count]
            else:
                span = np.arange(count)
                out[dst[:, None] + span] = arrays[source][src[:, None] + span]
        return [out]

    def operand(self, values: np.ndarray) -> Operand:
        """The receiver's summand: ``values`` (the union's, in order) over
        the union's cells."""
        return Operand(
            self.leaves, CompressedField(self.pattern, values), self.cells_per_leaf
        )


#: Unions of several leaves by ``(their pattern geometries, leaves, k,
#: ranks, rank)``, for the same reason as :data:`_SUBSETS` (a one-leaf
#: union is its subset, which that table holds): sender and receiver derive
#: the same union every warm job.  Weighed by
#: :attr:`CellUnion.derived_nbytes`, bounded at 64 MiB.
_UNIONS: "WeightedLRU[CellUnion]" = WeightedLRU(max_weight=64 << 20)


def union_touching_rank(
    patterns: Sequence[SamplingPattern],
    leaves: Sequence[int],
    k: int,
    num_ranks: int,
    rank: int,
) -> CellUnion:
    """The :class:`CellUnion` of the fields of ``leaves`` (patterns in the
    same order) whose cells touch ``rank``'s boxes: a pure function of the
    patterns' geometry, the leaves, ``k``, ``num_ranks`` and ``rank``, so
    both ends of an exchange derive it and only its values travel."""
    if len(leaves) == 1:
        return CellUnion(patterns, leaves, k, num_ranks, rank)
    key = (tuple(p.geometry_key for p in patterns), tuple(leaves), k, num_ranks, rank)
    union = _UNIONS.get(key)
    if union is None:
        union = CellUnion(patterns, leaves, k, num_ranks, rank)
        union = _UNIONS.put(key, union, union.derived_nbytes)
    return union
