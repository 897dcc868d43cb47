"""Adaptive multi-resolution sampling patterns (paper Fig 3, §5.4).

The paper's heuristic schedule, parameterized by the sub-domain size ``k``:

- the sub-domain itself: full resolution (``r = 1``);
- within Chebyshev distance ``k/2`` of the sub-domain: ``r = r_near`` (2);
- from ``k/2`` out to ``4k``: ``r = r_mid`` (8);
- beyond ``4k``: ``r = r_far`` (16 or 32);
- within ``boundary_width`` of the grid edge: densely re-sampled again
  ("the edges of the grid, subject to specific boundary conditions, are
  densely sampled").

:func:`build_adaptive_pattern` realizes the schedule as an octree whose
leaves have uniform rates; :func:`build_flat_pattern` is the flat exterior
rate used by the paper's Tables 3/4 configurations (where a single average
``r`` is quoted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.octree.cell import OctreeCell, encode_metadata
from repro.octree.tree import Octree
from repro.util.validation import check_positive_int

Region = Tuple[int, int, int]


@dataclass(frozen=True)
class BandedRatePolicy:
    """The paper's distance-banded sampling-rate schedule.

    ``rate(point)`` is decided by the Chebyshev distance ``d`` from the
    point to the sub-domain box and the distance ``e`` to the grid edge:
    boundary band wins (dense), then the distance bands.
    """

    n: int
    k: int
    corner: Tuple[int, int, int]
    r_near: int = 2
    r_mid: int = 8
    r_far: int = 32
    boundary_width: int = 1
    boundary_rate: int = 1

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        check_positive_int(self.k, "k")
        if self.k > self.n:
            raise ConfigurationError(f"k={self.k} exceeds n={self.n}")
        for name in ("r_near", "r_mid", "r_far", "boundary_rate"):
            check_positive_int(getattr(self, name), name)
        if self.boundary_width < 0:
            raise ConfigurationError("boundary_width must be >= 0")
        for c in self.corner:
            if c < 0 or c + self.k > self.n:
                raise ConfigurationError(
                    f"sub-domain k={self.k} at corner {self.corner} "
                    f"outside grid n={self.n}"
                )

    # -- scalar oracles --------------------------------------------------------
    def base_rate(self, dist: float) -> int:
        """Rate from sub-domain distance alone (no boundary band)."""
        if dist <= 0:
            return 1
        if dist <= self.k / 2:
            return self.r_near
        if dist <= 4 * self.k:
            return self.r_mid
        return self.r_far

    def rate_at(self, point: Tuple[int, int, int]) -> int:
        """Sampling rate at a single grid point."""
        d = self._point_box_dist(point)
        e = min(min(p, self.n - 1 - p) for p in point)
        if e < self.boundary_width:
            return self.boundary_rate
        return self.base_rate(d)

    def _point_box_dist(self, point: Tuple[int, int, int]) -> int:
        gaps = []
        for p, c in zip(point, self.corner):
            lo, hi = c, c + self.k - 1
            gaps.append(max(lo - p, p - hi, 0))
        return max(gaps)

    # -- region oracle (exact min/max for octree uniformity checks) ------------
    def region_rate(self, lo: Region, hi: Region) -> Tuple[int, int]:
        """``(min_rate, max_rate)`` over the half-open region ``[lo, hi)``."""
        dmin, dmax = self._region_box_dist(lo, hi)
        emin, emax = self._region_edge_dist(lo, hi)
        rates = []
        if emin < self.boundary_width:
            rates.append(self.boundary_rate)
        if emax >= self.boundary_width:
            rates.append(self.base_rate(dmin))
            rates.append(self.base_rate(dmax))
            # Band boundaries k/2 and 4k may fall strictly inside (dmin, dmax).
            for edge in (0, self.k / 2, 4 * self.k):
                if dmin < edge < dmax:
                    rates.append(self.base_rate(edge))
                    rates.append(self.base_rate(edge + 1))
        return min(rates), max(rates)

    def _region_box_dist(self, lo: Region, hi: Region) -> Tuple[int, int]:
        """Chebyshev distance range from region points to the sub-domain box."""
        dmin_axes = []
        dmax_axes = []
        for axis in range(3):
            blo, bhi = self.corner[axis], self.corner[axis] + self.k - 1
            rlo, rhi = lo[axis], hi[axis] - 1
            # min gap over region coordinates on this axis
            if rhi < blo:
                gmin = blo - rhi
            elif rlo > bhi:
                gmin = rlo - bhi
            else:
                gmin = 0
            gmax = max(blo - rlo, rhi - bhi, 0)
            dmin_axes.append(gmin)
            dmax_axes.append(gmax)
        return max(dmin_axes), max(dmax_axes)

    def _region_edge_dist(self, lo: Region, hi: Region) -> Tuple[int, int]:
        """Range of ``min_axis(min(p, n-1-p))`` over the region."""
        n = self.n
        per_axis_min = []
        per_axis_max = []
        for axis in range(3):
            a, b = lo[axis], hi[axis] - 1
            ed_a = min(a, n - 1 - a)
            ed_b = min(b, n - 1 - b)
            per_axis_min.append(min(ed_a, ed_b))
            center = (n - 1) // 2
            if a <= center <= b:
                per_axis_max.append(min(center, n - 1 - center))
            else:
                per_axis_max.append(max(ed_a, ed_b))
        return min(per_axis_min), min(per_axis_max)


@dataclass
class SamplingPattern:
    """An octree-leaf partition of the grid with per-cell sampling rates.

    Produced by the builders below; consumed by
    :class:`~repro.octree.compress.CompressedField` (extraction) and the
    staged pipeline (per-axis retained coordinate sets).
    """

    n: int
    cells: List[OctreeCell]
    subdomain_corner: Tuple[int, int, int] = (0, 0, 0)
    subdomain_size: int = 0
    _coords: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @cached_property
    def sample_coords(self) -> np.ndarray:
        """All retained sample coordinates, shape ``(M, 3)``, cell order."""
        if not self.cells:
            return np.empty((0, 3), dtype=np.intp)
        return np.concatenate([c.sample_coords() for c in self.cells], axis=0)

    @cached_property
    def sample_count(self) -> int:
        return sum(c.sample_count for c in self.cells)

    @property
    def compression_ratio(self) -> float:
        """Dense points per retained sample (> 1 means compression)."""
        m = self.sample_count
        return float(self.n**3) / m if m else float("inf")

    @cached_property
    def _axis_coordinate_sets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            np.unique(np.concatenate([c.axis_coords(axis) for c in self.cells]))
            for axis in range(3)
        )

    def axis_coordinate_set(self, axis: int) -> np.ndarray:
        """Sorted unique retained coordinates along ``axis``.

        The staged inverse transform prunes each 1D stage to this set (the
        union over cells), so the intermediate shrinks axis by axis.
        Cached: every convolve against the same pattern reuses it.
        """
        if not 0 <= axis < 3:
            raise ConfigurationError(f"axis must be 0, 1 or 2, got {axis}")
        return self._axis_coordinate_sets[axis]

    @cached_property
    def box_gather_index(self) -> np.ndarray:
        """Where each sample sits in the pruned result box, sample order.

        The staged inverse evaluates the result on the C-ordered
        ``(|X|, |Y|, |Z|)`` box spanned by the three axis coordinate sets;
        entry ``i`` is sample ``i``'s flat offset into it, so extraction is
        one ``np.take``.  A pure function of the pattern, hence cached;
        read-only, in the narrowest unsigned dtype that holds the box size
        (a pattern can carry several hundred thousand samples).
        """
        sets = self._axis_coordinate_sets
        coords = self.sample_coords
        index = np.zeros(len(coords), dtype=np.intp)
        for axis, retained in enumerate(sets):
            # position of each grid coordinate within the sorted retained set
            rank = np.zeros(self.n, dtype=np.intp)
            rank[retained] = np.arange(len(retained), dtype=np.intp)
            index *= len(retained)
            index += rank[coords[:, axis]]
        box_size = math.prod(len(retained) for retained in sets)
        index = index.astype(np.min_scalar_type(box_size - 1))
        index.setflags(write=False)
        return index

    @cached_property
    def _packed_metadata(self) -> np.ndarray:
        meta = encode_metadata(self.cells)
        meta.setflags(write=False)
        return meta

    @cached_property
    def _packed_sizes(self) -> np.ndarray:
        sizes = np.array([c.size for c in self.cells], dtype=np.int32)
        sizes.setflags(write=False)
        return sizes

    def metadata(self) -> np.ndarray:
        """Packed 5-int-per-cell metadata (paper layout).

        Cached and read-only: the serializer ships it as a zero-copy
        segment, so every encode of the same pattern reuses one buffer.
        """
        return self._packed_metadata

    def cell_sizes(self) -> np.ndarray:
        """Edge lengths parallel to the packed metadata (cached, read-only)."""
        return self._packed_sizes

    @cached_property
    def geometry_key(self) -> Tuple[int, bytes, bytes]:
        """Hashable content key of the cell geometry: ``(n, metadata
        bytes, sizes bytes)``.

        Equal for congruent patterns however they were built or decoded;
        what data-independent per-pattern work (reconstruction plans) is
        cached under.  The sub-domain fields are not part of it: they
        label the pattern, the cells alone decide where samples sit.
        """
        return (self.n, self.metadata().tobytes(), self.cell_sizes().tobytes())

    def metadata_nbytes(self) -> int:
        """Bytes of octree metadata (int32 layout)."""
        return int(self.metadata().nbytes)

    def rate_histogram(self) -> Dict[int, int]:
        """Sample counts per rate (the per-band densities behind Fig 3)."""
        hist: Dict[int, int] = {}
        for c in self.cells:
            hist[c.rate] = hist.get(c.rate, 0) + c.sample_count
        return hist

    def occupancy_slice(self, z: int) -> np.ndarray:
        """Boolean ``(n, n)`` mask of retained samples in plane ``z``
        (the raw material of the paper's Fig 3 rendering)."""
        if not 0 <= z < self.n:
            raise ConfigurationError(f"z={z} outside grid of size {self.n}")
        mask = np.zeros((self.n, self.n), dtype=bool)
        for c in self.cells:
            zs = c.axis_coords(2)
            if z in zs:
                xs = c.axis_coords(0)
                ys = c.axis_coords(1)
                mask[np.ix_(xs, ys)] = True
        return mask


def build_adaptive_pattern(
    n: int,
    k: int,
    corner: Tuple[int, int, int],
    r_near: int = 2,
    r_mid: int = 8,
    r_far: int = 32,
    boundary_width: int = 1,
    boundary_rate: int = 1,
    min_cell: int = 1,
) -> SamplingPattern:
    """Build the paper's banded adaptive pattern as an octree partition."""
    policy = BandedRatePolicy(
        n=n,
        k=k,
        corner=tuple(int(c) for c in corner),
        r_near=r_near,
        r_mid=r_mid,
        r_far=r_far,
        boundary_width=boundary_width,
        boundary_rate=boundary_rate,
    )
    tree = Octree.build(n, policy.region_rate, min_cell=min_cell)
    return SamplingPattern(
        n=n,
        cells=tree.leaves,
        subdomain_corner=policy.corner,
        subdomain_size=k,
    )


@dataclass(frozen=True)
class BoxRatePolicy:
    """Banded rate schedule around a rectangular (non-cubic) sub-domain.

    The paper notes "irregular partitions can also be made" (§3.1); this
    policy generalizes :class:`BandedRatePolicy` to boxes: distances are
    Chebyshev distances to the box, and the band widths scale with the
    box's largest edge (the analogue of ``k``).
    """

    n: int
    shape: Tuple[int, int, int]
    corner: Tuple[int, int, int]
    r_near: int = 2
    r_mid: int = 8
    r_far: int = 32

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        for s, c in zip(self.shape, self.corner):
            check_positive_int(s, "shape")
            if c < 0 or c + s > self.n:
                raise ConfigurationError(
                    f"box {self.shape} at {self.corner} outside grid n={self.n}"
                )
        for name in ("r_near", "r_mid", "r_far"):
            check_positive_int(getattr(self, name), name)

    @property
    def band_unit(self) -> int:
        """The band length scale: the box's largest edge."""
        return max(self.shape)

    def base_rate(self, dist: float) -> int:
        """Rate from box distance (same band structure as the cubic policy)."""
        if dist <= 0:
            return 1
        if dist <= self.band_unit / 2:
            return self.r_near
        if dist <= 4 * self.band_unit:
            return self.r_mid
        return self.r_far

    def region_rate(self, lo: Region, hi: Region) -> Tuple[int, int]:
        """``(min_rate, max_rate)`` over the half-open region ``[lo, hi)``."""
        dmin_axes, dmax_axes = [], []
        for axis in range(3):
            blo = self.corner[axis]
            bhi = self.corner[axis] + self.shape[axis] - 1
            rlo, rhi = lo[axis], hi[axis] - 1
            if rhi < blo:
                gmin = blo - rhi
            elif rlo > bhi:
                gmin = rlo - bhi
            else:
                gmin = 0
            dmin_axes.append(gmin)
            dmax_axes.append(max(blo - rlo, rhi - bhi, 0))
        dmin, dmax = max(dmin_axes), max(dmax_axes)
        rates = [self.base_rate(dmin), self.base_rate(dmax)]
        for edge in (0, self.band_unit / 2, 4 * self.band_unit):
            if dmin < edge < dmax:
                rates.append(self.base_rate(edge))
                rates.append(self.base_rate(edge + 1))
        return min(rates), max(rates)


def build_box_pattern(
    n: int,
    shape: Tuple[int, int, int],
    corner: Tuple[int, int, int],
    r_near: int = 2,
    r_mid: int = 8,
    r_far: int = 32,
    min_cell: int = 1,
) -> SamplingPattern:
    """Banded adaptive pattern around a rectangular sub-domain."""
    policy = BoxRatePolicy(
        n=n,
        shape=tuple(int(s) for s in shape),
        corner=tuple(int(c) for c in corner),
        r_near=r_near,
        r_mid=r_mid,
        r_far=r_far,
    )
    tree = Octree.build(n, policy.region_rate, min_cell=min_cell)
    return SamplingPattern(
        n=n,
        cells=tree.leaves,
        subdomain_corner=policy.corner,
        subdomain_size=policy.band_unit,
    )


def build_flat_pattern(
    n: int, k: int, corner: Tuple[int, int, int], r: int
) -> SamplingPattern:
    """Dense sub-domain plus flat exterior rate ``r`` (Tables 3/4 configs)."""
    check_positive_int(r, "r")
    policy = BandedRatePolicy(
        n=n,
        k=k,
        corner=tuple(int(c) for c in corner),
        r_near=r,
        r_mid=r,
        r_far=r,
        boundary_width=0,
        boundary_rate=1,
    )
    tree = Octree.build(n, policy.region_rate, min_cell=1)
    return SamplingPattern(
        n=n,
        cells=tree.leaves,
        subdomain_corner=policy.corner,
        subdomain_size=k,
    )
