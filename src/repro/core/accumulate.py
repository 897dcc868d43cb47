"""Accumulation: the single sparse exchange plus interpolation (Step 4).

"Accumulating sub-domain results by interpolation and minimal data
communication avoids all-to-all between FFT stages.  Only sparse samples
are exchanged at the end of the computation."  (paper §3.1)

Two entry points, one per runtime, both one
:func:`~repro.octree.interpolate.reconstruct_box` per box over all the
fields in sub-domain index order — its plan sums the cells the fields
share before interpolating them, so a cell is contracted once however many
sub-domains' octrees hold it:

- :func:`accumulate_global` — in-process (``run_serial`` /
  ``run_parallel``, driver-side recovery): the whole grid is the box.
- :func:`accumulate_boxes` — the rank-side half of the distributed step
  (:func:`repro.dist.worker.rank_main`, after the single sparse exchange):
  each of a rank's *own* sub-domain boxes, so no rank ever holds the
  global dense grid.  :func:`repro.dist.launcher.assemble_blocks` places
  the blocks.

What a rank needs of a peer's field for :func:`accumulate_boxes` is
:func:`cells_touching_rank`: the cells whose extent meets one of its
boxes.  Interpolation reads only a cell's own lattice, so those whole
cells are exactly the halo, and the exchange ships nothing else.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from repro.core.decomposition import SubDomain
from repro.errors import ConfigurationError
from repro.octree.cell import METADATA_INTS_PER_CELL
from repro.octree.compress import CellSubset, CompressedField
from repro.octree.interpolate import reconstruct_box
from repro.octree.sampling import SamplingPattern
from repro.util.lru import WeightedLRU


def accumulate_global(
    fields: Sequence[CompressedField], method: str = "linear"
) -> np.ndarray:
    """The dense sum of the reconstructions of all compressed sub-domain
    results (``fields`` in sub-domain index order): one
    :func:`~repro.octree.interpolate.reconstruct_box` over the whole grid."""
    if not fields:
        raise ConfigurationError("need at least one compressed field")
    n = fields[0].pattern.n
    return reconstruct_box(fields, (0, 0, 0), (n, n, n), method=method)


def accumulate_boxes(
    fields: Mapping[int, CompressedField],
    targets: Iterable[SubDomain],
    method: str = "linear",
) -> Dict[int, np.ndarray]:
    """Accumulate every field over each target sub-domain's own box.

    ``fields`` maps sub-domain index to that sub-domain's compressed
    result, whole or cut to the cells that touch the targets
    (:func:`cells_touching_rank`).  Each block is one
    :func:`~repro.octree.interpolate.reconstruct_box` of the fields in
    sub-domain index order — the order ``run_serial`` passes them in — so
    a block is bitwise the matching slice of :func:`accumulate_global`,
    whichever rank computed it and whatever order the fields arrived in.
    Returns the dense ``k^3`` block per target, keyed by sub-domain index.
    """
    ordered = [fields[index] for index in sorted(fields)]
    blocks: Dict[int, np.ndarray] = {}
    for target in targets:
        shape = (target.size,) * 3
        if ordered:
            blocks[target.index] = reconstruct_box(ordered, target.corner, shape, method)
        else:
            blocks[target.index] = np.zeros(shape, dtype=np.float64)
    return blocks


#: Cell subsets by ``(pattern geometry, k, ranks, rank)``, beside
#: the reconstruction plans and for the same reason: a warm job re-sends the
#: same patterns, so its packed subset metadata and value runs are reused,
#: and the receiver's pattern intern and plans keep hitting.  Bounded by
#: bytes held (16 MiB; a banded n=64 / k=16 subset holds about 5 KB).
_SUBSETS: "WeightedLRU[CellSubset]" = WeightedLRU(max_weight=16 << 20)


def cells_touching_rank(
    pattern: SamplingPattern, k: int, num_ranks: int, rank: int
) -> CellSubset:
    """The cells of ``pattern`` whose extent meets a box ``rank`` owns.

    Boxes are the ``k^3`` sub-domains of the pattern's grid, owned
    round-robin by index (:meth:`~repro.core.decomposition
    .DomainDecomposition.assign_round_robin`), so the subset is a pure
    function of the pattern's geometry, ``k``, ``num_ranks`` and ``rank``:
    every rank computes the same one with no negotiation.  The subset is
    empty (no cells, no runs) when no cell touches the rank's boxes.
    """
    key = (pattern.geometry_key, k, num_ranks, rank)
    subset = _SUBSETS.get(key)
    if subset is None:
        subset = CellSubset.of(pattern, _touches_rank(pattern, k, num_ranks, rank))
        subset = _SUBSETS.put(key, subset, subset.nbytes)
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
    meta = pattern.metadata().reshape(-1, METADATA_INTS_PER_CELL)
    lo = meta[:, :3].astype(np.int64) // k
    hi = (meta[:, :3] + pattern.cell_sizes()[:, None] - 1).astype(np.int64) // k + 1
    count = np.zeros(len(meta), dtype=np.int64)
    for corner in range(8):
        picks = [hi[:, axis] if corner >> axis & 1 else lo[:, axis] for axis in range(3)]
        sign = (-1) ** (3 - bin(corner).count("1"))
        count += sign * table[picks[0], picks[1], picks[2]]
    return count > 0
