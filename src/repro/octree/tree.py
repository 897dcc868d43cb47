"""Octree construction by recursive subdivision to uniform-rate leaves.

The tree starts from the whole grid cube and splits any cell whose
*required* sampling rate (a function of position supplied by the caller,
typically the banded distance schedule of :mod:`repro.octree.sampling`) is
not uniform across the cell.  Leaves are cells with a single rate — exactly
the structure Fig 3 of the paper visualizes: small dense cells hugging the
sub-domain, huge sparse cells far away.

The rate function operates on *regions* (``rate_bounds(lo, hi)`` returning
the min/max rate over the region) so uniformity checks are exact rather
than sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from repro.errors import ConfigurationError
from repro.octree.cell import OctreeCell
from repro.util.validation import check_positive_int

# A region rate oracle: (lo, hi) inclusive-exclusive bounds per axis ->
# (min_rate, max_rate) over all points of the region.
RegionRateFn = Callable[[Tuple[int, int, int], Tuple[int, int, int]], Tuple[int, int]]


@dataclass
class Octree:
    """An octree whose leaves carry uniform sampling rates.

    Use :meth:`build` to construct; ``leaves`` are ordered depth-first, the
    order used by the packed metadata (so cumulative counts are
    reproducible).
    """

    n: int
    leaves: List[OctreeCell] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        n: int,
        region_rate: RegionRateFn,
        min_cell: int = 1,
        max_depth: int = 32,
    ) -> "Octree":
        """Build by recursive subdivision.

        Parameters
        ----------
        n:
            Grid edge (cube ``n^3``); must be a power of two for exact
            halving.
        region_rate:
            Oracle returning ``(min_rate, max_rate)`` over a region.
        min_cell:
            Do not subdivide below this edge length; the cell takes the
            *finest* (smallest) required rate to stay conservative.
        max_depth:
            Safety bound on recursion.
        """
        n = check_positive_int(n, "n")
        if n & (n - 1) != 0:
            raise ConfigurationError(f"octree grid size must be a power of two, got {n}")
        min_cell = check_positive_int(min_cell, "min_cell")
        tree = cls(n=n)
        tree._subdivide((0, 0, 0), n, region_rate, min_cell, max_depth)
        return tree

    def _subdivide(
        self,
        corner: Tuple[int, int, int],
        size: int,
        region_rate: RegionRateFn,
        min_cell: int,
        depth_left: int,
    ) -> None:
        lo = corner
        hi = (corner[0] + size, corner[1] + size, corner[2] + size)
        rmin, rmax = region_rate(lo, hi)
        if rmin <= 0:
            raise ConfigurationError(f"region_rate returned non-positive rate {rmin}")
        if rmin == rmax or size <= min_cell or size == 1 or depth_left == 0:
            # Uniform (or can't split): conservative = finest required rate.
            rate = min(rmin, size)
            self.leaves.append(OctreeCell(corner=corner, size=size, rate=rate))
            return
        half = size // 2
        for dx in (0, half):
            for dy in (0, half):
                for dz in (0, half):
                    self._subdivide(
                        (corner[0] + dx, corner[1] + dy, corner[2] + dz),
                        half,
                        region_rate,
                        min_cell,
                        depth_left - 1,
                    )

    @property
    def num_leaves(self) -> int:
        return len(self.leaves)

    def total_samples(self) -> int:
        """Total retained samples across all leaves."""
        return sum(leaf.sample_count for leaf in self.leaves)
