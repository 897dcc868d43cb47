"""One summation order for the cells several fields share.

Accumulation sums, cell by cell, the samples of every sub-domain's field
that holds the cell (PAPER.md §1 step 4).  Floating-point addition is not
associative, so *where* each partial sum is formed decides the bits, and
every execution mode must form them in the same place.  The order here is
a fixed binary tree on the sub-domain index bits: the leaves are the
sub-domain indices, padded to a power of two with absent leaves, and the
first level adds the leaves that differ only in the highest bit, the next
those that differ in the next bit, and so on down to bit 0 at the root.
An absent operand passes the other one up unchanged (it never adds 0.0),
so a cell one field holds is that field's samples, bit for bit.

The tree's nodes are the *aligned subtrees*: the leaves congruent to a
residue ``r`` modulo ``2**bits``.  Round-robin ownership makes rank
``r``'s share at ``P = 2**p`` ranks exactly the subtree ``(r, p)``, so a
rank can sum its own fields' shared cells up to its share's node and ship
that partial: a receiver that adds the partials of its peers and its own
leaves up the same tree gets the bits a single process summing every leaf
gets.  An :class:`Operand` is such a summand — one field (a leaf) or the
partial of an aligned subtree — and :class:`TreeSum` schedules the adds of
a set of operands whose subtrees are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.octree.compress import CompressedField

#: The ``bits`` of a one-leaf subtree: deeper than any index needs.
LEAF_BITS = 64

#: Adds are applied in chunks whose gathered operands stay within this many
#: float64 (256 KiB), as reconstruction chunks are; a bigger cell is added
#: alone, through slices.
_CHUNK_POINTS = 1 << 15
_OP_OVERHEAD_BYTES = 512  # the op object, its list slot and array headers


def subtree(leaves: Sequence[int]) -> Tuple[int, int]:
    """The smallest aligned subtree holding ``leaves``, as ``(residue,
    bits)``: the indices congruent to ``residue`` modulo ``2**bits``.  One
    leaf is its own subtree (``bits`` is :data:`LEAF_BITS`)."""
    first = int(leaves[0])
    if len(leaves) == 1:
        return first, LEAF_BITS
    differ = 0
    for leaf in leaves[1:]:
        differ |= int(leaf) ^ first
    bits = (differ & -differ).bit_length() - 1  # the lowest differing bit
    return first & ((1 << bits) - 1), bits


def in_subtree(node: Tuple[int, int], leaf: int) -> bool:
    """Does the aligned subtree ``node`` hold ``leaf``?"""
    residue, bits = node
    if bits >= LEAF_BITS:
        return leaf == residue
    return leaf & ((1 << bits) - 1) == residue


@dataclass(frozen=True)
class Operand:
    """One summand of an accumulation: the tree sum, cell by cell, of the
    fields of ``leaves`` (ascending sub-domain indices, the fields of one
    aligned subtree).

    ``field`` holds the distinct cells those fields hold, ordered by the
    first leaf that holds each, then by that leaf's packed order, and their
    summed samples; ``cells_per_leaf[i]`` counts the cells whose first
    holder is ``leaves[i]``.  A leaf is one field, whole or cut.
    """

    leaves: Tuple[int, ...]
    field: CompressedField
    cells_per_leaf: Tuple[int, ...]

    def __post_init__(self) -> None:
        leaves = tuple(int(leaf) for leaf in self.leaves)
        if not leaves or any(leaf < 0 for leaf in leaves) or any(
            a >= b for a, b in zip(leaves, leaves[1:])
        ):
            raise ConfigurationError(
                f"operand leaves must be ascending distinct indices >= 0, got {leaves}"
            )
        if len(self.cells_per_leaf) != len(leaves) or sum(
            self.cells_per_leaf
        ) != self.field.pattern.num_cells:
            raise ConfigurationError(
                f"cells per leaf {tuple(self.cells_per_leaf)} do not partition "
                f"the {self.field.pattern.num_cells} cells of {len(leaves)} leaves"
            )
        object.__setattr__(self, "leaves", leaves)

    @classmethod
    def leaf(cls, index: int, field: CompressedField) -> "Operand":
        """Sub-domain ``index``'s field as a leaf."""
        return cls((index,), field, (field.pattern.num_cells,))

    @property
    def pattern(self):
        return self.field.pattern

    @property
    def node(self) -> Tuple[int, int]:
        """The aligned subtree the operand's partial sits at."""
        return subtree(self.leaves)

    @property
    def key(self) -> tuple:
        """What a plan over this operand depends on: leaves, layering and
        cell geometry — not the values."""
        return (self.leaves, tuple(self.cells_per_leaf), self.pattern.geometry_key)

    def firsts(self) -> np.ndarray:
        """Per cell, the first leaf that holds it."""
        return np.repeat(np.array(self.leaves, dtype=np.int64), self.cells_per_leaf)


def check_disjoint(operands: Sequence[Operand]) -> None:
    """Raise unless the operands' subtrees are disjoint: no leaf twice,
    and no leaf of one inside another's subtree (its partial would skip
    the adds the tree makes below that node)."""
    owner = {}
    for i, op in enumerate(operands):
        for leaf in op.leaves:
            if owner.setdefault(leaf, i) != i:
                raise ConfigurationError(f"sub-domain {leaf} is in two operands")
    leaves = np.fromiter(owner, dtype=np.int64, count=len(owner))
    owners = np.fromiter(owner.values(), dtype=np.int64, count=len(owner))
    for i, op in enumerate(operands):
        if len(op.leaves) == 1:
            continue
        residue, bits = op.node
        inside = (leaves & ((1 << bits) - 1) == residue) & (owners != i)
        if inside.any():
            raise ConfigurationError(
                f"sub-domain {int(leaves[inside][0])} lies in the subtree "
                f"of operand {op.leaves}"
            )


class _Add:
    """``count``-sample adds: into fresh buffer cells from ``out`` on
    (``a + b``), or, when ``out`` is None, of ``b`` onto the buffer cells
    at ``a_at`` in place.  ``a`` and ``b`` index the operands' value
    arrays, ``-1`` the buffer."""

    __slots__ = ("a", "a_at", "b", "b_at", "count", "out")

    def __init__(self, a, a_at, b, b_at, count, out):
        self.a, self.a_at, self.b, self.b_at = int(a), a_at, int(b), b_at
        self.count, self.out = int(count), out

    def run(self, arrays: Sequence[np.ndarray]) -> None:
        count, buf = self.count, arrays[-1]
        left, right = arrays[self.a], arrays[self.b]
        if len(self.a_at) == 1:
            a, b = int(self.a_at[0]), int(self.b_at[0])
            lhs, rhs = left[a : a + count], right[b : b + count]
            out = lhs if self.out is None else buf[self.out : self.out + count]
            np.add(lhs, rhs, out=out)
            return
        span = np.arange(count)
        if self.out is None:
            buf[self.a_at[:, None] + span] += right[self.b_at[:, None] + span]
        else:
            out = buf[self.out : self.out + len(self.a_at) * count]
            np.add(
                left[self.a_at[:, None] + span],
                right[self.b_at[:, None] + span],
                out=out.reshape(-1, count),
            )


class TreeSum:
    """The adds that sum some cells over the operands holding them, in the
    tree order.

    Built from the operands' subtrees (``nodes``, one ``(residue, bits)``
    row per operand, disjoint) and one row per *hit* — a target cell held
    by an operand: the target's number, the operand, the offset of the
    cell's samples in the operand's values, and the sample count.  Level by
    level from the leaves, two sibling partials of a target are added:
    into a fresh buffer cell when both are operand samples, else onto the
    buffer cell one of them already occupies.  A lone partial moves up
    untouched.  :meth:`apply` returns the buffer; ``source[t]`` and
    ``at[t]`` say where target ``t``'s sum ends up — an operand's values
    and the offset there, for a target one operand holds, else ``-1`` and
    the buffer offset.

    Stores two offsets per add and nothing per sample.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        target: np.ndarray,
        operand: np.ndarray,
        offset: np.ndarray,
        count: np.ndarray,
        targets: int,
    ):
        nodes = np.asarray(nodes, dtype=np.int64).reshape(-1, 2)
        leaf = nodes[:, 1] >= LEAF_BITS
        # any depth at least every leaf's bit length gives the same tree:
        # the levels above it only pass partials through
        top = max(
            [int(r).bit_length() for r in nodes[leaf, 0].tolist()]
            + nodes[~leaf, 1].tolist()
            + [0]
        )
        target = np.asarray(target, dtype=np.int64)
        residue = nodes[operand, 0].copy()
        depth = np.minimum(nodes[operand, 1], top)
        src = np.asarray(operand, dtype=np.int64).copy()
        pos = np.asarray(offset, dtype=np.int64).copy()
        count = np.asarray(count, dtype=np.int64)
        # a target one operand holds is read in place: only the others add
        alone = np.bincount(target, minlength=targets)[target] == 1
        live = ~alone
        if alone.all():
            top = 0
        # per level that adds, leaves first: the adds into fresh cells
        # (a, a_at, b, b_at, count, cell) and onto occupied ones (cell, b,
        # b_at, count), cells numbered in the order they are made
        levels = []
        made = 0
        for d in range(top, 0, -1):
            at = np.flatnonzero(live & (depth == d))
            if not at.size:
                continue
            parent = residue[at] & ((1 << (d - 1)) - 1)
            order = np.lexsort((residue[at], parent, target[at]))
            at, parent = at[order], parent[order]
            residue[at], depth[at] = parent, d - 1
            pair = (target[at[1:]] == target[at[:-1]]) & (parent[1:] == parent[:-1])
            left, right = at[:-1][pair], at[1:][pair]
            if not left.size:
                continue
            live[right] = False
            both = (src[left] >= 0) & (src[right] >= 0)
            p, q = left[both], right[both]
            cells = made + np.arange(len(p))
            made += len(p)
            fresh = (src[p], pos[p], src[q], pos[q], count[p], cells)
            src[p], pos[p] = -1, cells
            p, q = left[~both], right[~both]
            buffered = src[p] < 0
            keep = np.where(buffered, p, q)
            other = np.where(buffered, q, p)
            onto = (pos[keep], src[other], pos[other], count[keep])
            pos[p] = pos[keep]
            src[p] = -1
            levels.append((fresh, onto))

        roots = np.flatnonzero(live | alone)
        if len(roots) != targets or np.bincount(target[roots], minlength=targets).max(
            initial=0
        ) > 1:
            raise ConfigurationError("tree sum over overlapping operands")

        # Fresh cells are laid out op group by op group, so a group's
        # outputs are one run of the buffer and only its inputs are stored.
        where = np.empty(made, dtype=np.int64)
        self.ops: List[_Add] = []
        self.size = 0
        self.nbytes = 0
        for (a, a_at, b, b_at, cnt, cells), (slot, c, c_at, c_cnt) in levels:
            for key, members in group_rows(np.column_stack((cnt, a, b))):
                size = int(key[0])
                for part in chunked(members, size):
                    where[cells[part]] = self.size + size * np.arange(len(part))
                    self._add(key[1], a_at[part], key[2], b_at[part], size, self.size)
                    self.size += size * len(part)
            slot_at = where[slot]
            c_at = c_at.copy()
            c_at[c < 0] = where[c_at[c < 0]]
            for key, members in group_rows(np.column_stack((c_cnt, c))):
                size = int(key[0])
                for part in chunked(members, size):
                    self._add(-1, slot_at[part], key[1], c_at[part], size, None)
        buffered = src[roots] < 0
        self.source = np.empty(targets, dtype=np.int64)
        self.at = np.empty(targets, dtype=np.int64)
        self.source[target[roots]] = src[roots]
        self.at[target[roots]] = pos[roots]
        self.at[target[roots[buffered]]] = where[pos[roots[buffered]]]

    def _add(self, a, a_at, b, b_at, count, out) -> None:
        self.ops.append(_Add(a, a_at, b, b_at, count, out))
        self.nbytes += _OP_OVERHEAD_BYTES + a_at.nbytes + b_at.nbytes

    def apply(self, values: Sequence[np.ndarray]) -> np.ndarray:
        """The buffer of summed cells for the operands' ``values``."""
        buf = np.empty(self.size)
        arrays = [*values, buf]
        for op in self.ops:
            op.run(arrays)
        return buf


def group_rows(keys: np.ndarray):
    """``(key row, member indices)`` per distinct row of the 2-D ``keys``,
    rows ascending, members in their original order."""
    if not len(keys):
        return
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    bounds = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    bounds = [0, *bounds.tolist(), len(keys)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        yield ordered[start].tolist(), order[start:stop]


def chunked(members: np.ndarray, count: int):
    """``members`` in runs whose samples stay within one chunk."""
    per = max(1, _CHUNK_POINTS // count)
    for i in range(0, len(members), per):
        yield members[i : i + per]
