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
``r`` is quoted); :func:`build_box_pattern` is the schedule around a
rectangular sub-domain.  All three refine the grid level by level against
one vectorised region oracle, :meth:`BandedRatePolicy.region_rates`, and
hold the leaves as the paper's 5-int table (:mod:`repro.octree.cell`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.octree.cell import (
    METADATA_INTS_PER_CELL,
    axis_offsets,
    check_grid_size,
    pack_table,
    samples_per_axis,
)
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class BandedRatePolicy:
    """The paper's distance-banded sampling-rate schedule.

    ``rate(point)`` is decided by the Chebyshev distance ``d`` from the
    point to the sub-domain box and the distance ``e`` to the grid edge:
    boundary band wins (dense), then the distance bands.

    The box is the ``k``-cube at ``corner``, or a rectangular ``shape``
    there ("irregular partitions can also be made", §3.1).  The band
    widths scale with ``k``, which for a box must be its largest edge.
    """

    n: int
    k: int
    corner: Tuple[int, int, int]
    r_near: int = 2
    r_mid: int = 8
    r_far: int = 32
    boundary_width: int = 1
    boundary_rate: int = 1
    shape: Optional[Tuple[int, int, int]] = None

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        check_positive_int(self.k, "k")
        if self.k > self.n:
            raise ConfigurationError(f"k={self.k} exceeds n={self.n}")
        for name in ("r_near", "r_mid", "r_far", "boundary_rate"):
            check_positive_int(getattr(self, name), name)
        if self.boundary_width < 0:
            raise ConfigurationError("boundary_width must be >= 0")
        if self.shape is not None:
            for edge in self.shape:
                check_positive_int(edge, "shape")
            if max(self.shape) != self.k:
                raise ConfigurationError(
                    f"box {self.shape} needs k = its largest edge, got k={self.k}"
                )
        for c, edge in zip(self.corner, self.extent):
            if c < 0 or c + edge > self.n:
                raise ConfigurationError(
                    f"sub-domain {self.extent} at corner {self.corner} "
                    f"outside grid n={self.n}"
                )

    @property
    def extent(self) -> Tuple[int, int, int]:
        """The box's edges: ``shape``, or the ``k``-cube's."""
        return (self.k,) * 3 if self.shape is None else self.shape

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

    def rate_at(  # repro-lint: disable=DEAD001 oracle of test_octree_tree_sampling.py::TestBandedRatePolicy
        self, point: Tuple[int, int, int]
    ) -> int:
        """Sampling rate at a single grid point."""
        if min(min(p, self.n - 1 - p) for p in point) < self.boundary_width:
            return self.boundary_rate
        dist = max(
            max(c - p, p - (c + edge - 1), 0)
            for p, c, edge in zip(point, self.corner, self.extent)
        )
        return self.base_rate(dist)

    # -- the region oracle the builder refines against -------------------------
    def region_rates(self, lo, size) -> Tuple[np.ndarray, np.ndarray]:
        """``(min_rate, max_rate)`` over each cube ``[lo, lo + size)``.

        ``lo`` is ``(C, 3)`` and ``size`` one edge or ``C`` of them; the
        result is two int64 ``(C,)`` arrays, exact over each cube's grid
        points.  A band edge (``k/2``, ``4k``) strictly inside a cube's
        range of distances to the box adds the rates on both of its sides.
        A cube that reaches into the boundary band adds ``boundary_rate``,
        which is its only rate when the cube lies wholly inside the band.
        """
        lo = np.asarray(lo, dtype=np.int64).reshape(-1, 3)
        last = lo + (np.asarray(size, dtype=np.int64).reshape(-1, 1) - 1)
        box_lo = np.asarray(self.corner, dtype=np.int64)
        box_hi = box_lo + np.asarray(self.extent, dtype=np.int64) - 1
        # range of Chebyshev distances from each cube's points to the box
        dmin = np.maximum(np.maximum(box_lo - last, lo - box_hi), 0).max(axis=1)
        dmax = np.maximum(np.maximum(box_lo - lo, last - box_hi), 0).max(axis=1)
        near, far = self._band_rates(dmin), self._band_rates(dmax)
        rmin, rmax = np.minimum(near, far), np.maximum(near, far)
        # distances are >= 0, so the band edge at 0 is never strictly inside
        for edge in (self.k / 2, 4 * self.k):
            inside = (dmin < edge) & (edge < dmax)
            for rate in (self.base_rate(edge), self.base_rate(edge + 1)):
                rmin = np.where(inside, np.minimum(rmin, rate), rmin)
                rmax = np.where(inside, np.maximum(rmax, rate), rmax)
        if self.boundary_width == 0:
            return rmin, rmax
        # range of min over axes of min(p, n-1-p): distance to the grid edge
        top = self.n - 1
        edge_lo, edge_hi = np.minimum(lo, top - lo), np.minimum(last, top - last)
        emin = np.minimum(edge_lo, edge_hi).min(axis=1)
        center = top // 2
        spans = (lo <= center) & (center <= last)
        emax = np.where(
            spans, min(center, top - center), np.maximum(edge_lo, edge_hi)
        ).min(axis=1)
        touches = emin < self.boundary_width
        beyond = emax >= self.boundary_width
        rate = self.boundary_rate
        rmin = np.where(beyond, np.where(touches, np.minimum(rmin, rate), rmin), rate)
        rmax = np.where(beyond, np.where(touches, np.maximum(rmax, rate), rmax), rate)
        return rmin, rmax

    def _band_rates(self, dist: np.ndarray) -> np.ndarray:
        """:meth:`base_rate` over int64 distances (``2d <= k`` is ``d <= k/2``)."""
        return np.where(
            dist <= 0,
            1,
            np.where(
                2 * dist <= self.k,
                self.r_near,
                np.where(dist <= 4 * self.k, self.r_mid, self.r_far),
            ),
        )


@dataclass(eq=False)
class SamplingPattern:
    """An octree-leaf partition of the grid with per-cell sampling rates,
    held as the paper's table.

    ``table`` holds the ``(C, 5)`` int32 rows ``(x, y, z, rate, cumulative
    count)`` of the leaves in depth-first order and ``sizes`` their ``C``
    int32 edges; both are read-only.  A field's samples follow the table
    cell by cell, each cell's lattice in C order.  Everything else is
    derived from the two arrays with array ops, one pass per distinct
    ``(size, rate)``, and cached.

    Produced by the builders below and by
    :func:`~repro.octree.serialize.deserialize_compressed`; consumed by
    :class:`~repro.octree.compress.CompressedField` (extraction), the
    staged pipeline (per-axis retained coordinate sets) and reconstruction.
    """

    n: int
    table: np.ndarray
    sizes: np.ndarray
    subdomain_corner: Tuple[int, int, int] = (0, 0, 0)
    subdomain_size: int = 0

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.int32)
        table = table.reshape(-1, METADATA_INTS_PER_CELL).view()
        sizes = np.asarray(self.sizes, dtype=np.int32).reshape(-1).view()
        if len(sizes) != len(table):
            raise ConfigurationError(
                f"{len(sizes)} cell sizes for {len(table)} table rows"
            )
        table.setflags(write=False)
        sizes.setflags(write=False)
        self.table, self.sizes = table, sizes

    @property
    def num_cells(self) -> int:
        return len(self.sizes)

    @cached_property
    def sample_count(self) -> int:
        """Retained samples: the last cell's offset plus its own count."""
        if not self.num_cells:
            return 0
        last = samples_per_axis(self.sizes[-1], self.table[-1, 3]) ** 3
        return int(self.table[-1, 4] + last)

    @property
    def compression_ratio(self) -> float:
        """Dense points per retained sample (> 1 means compression)."""
        m = self.sample_count
        return float(self.n**3) / m if m else float("inf")

    @cached_property
    def _groups(self) -> List[Tuple[int, int, np.ndarray, np.ndarray]]:
        """``(size, rate, corners, offsets)`` per distinct cell size and
        rate, cells in table order: congruent cells share one lattice, so
        each derived array below costs one array pass per group."""
        key = self.sizes.astype(np.int64) << 32 | self.table[:, 3]
        unique, inverse = np.unique(key, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(len(unique) + 1))
        corners = self.table[:, :3].astype(np.intp)
        offsets = self.table[:, 4].astype(np.intp)
        groups = []
        for g, value in enumerate(unique.tolist()):
            ids = order[bounds[g] : bounds[g + 1]]
            groups.append((value >> 32, value & 0xFFFFFFFF, corners[ids], offsets[ids]))
        return groups

    @cached_property
    def sample_coords(self) -> np.ndarray:
        """All retained sample coordinates, shape ``(M, 3)``, cell order."""
        coords = np.empty((self.sample_count, 3), dtype=np.intp)
        for size, rate, corners, offsets in self._groups:
            axis = axis_offsets(size, rate)
            lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
            lattice = lattice.reshape(-1, 3)
            rows = offsets[:, None] + np.arange(len(lattice))
            coords[rows] = corners[:, None, :] + lattice
        return coords

    @cached_property
    def _axis_coordinate_sets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        retained = np.zeros((3, self.n), dtype=bool)
        for size, rate, corners, _offsets in self._groups:
            axis = axis_offsets(size, rate)
            for a in range(3):
                retained[a, corners[:, a, None] + axis] = True
        return tuple(np.flatnonzero(row) for row in retained)

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
        one ``np.take``.  Built per ``(size, rate)`` group from the ranks
        of each cell's three axis lattices in the sets, never through
        :attr:`sample_coords`.  A pure function of the pattern, hence
        cached; read-only, in the narrowest unsigned dtype that holds the
        box size (a pattern can carry several hundred thousand samples).
        """
        sets = self._axis_coordinate_sets
        ranks = []
        for retained in sets:
            rank = np.zeros(self.n, dtype=np.intp)
            rank[retained] = np.arange(len(retained), dtype=np.intp)
            ranks.append(rank)
        _mx, my, mz = (len(retained) for retained in sets)
        box_size = math.prod(len(retained) for retained in sets)
        index = np.empty(self.sample_count, dtype=np.min_scalar_type(box_size - 1))
        for size, rate, corners, offsets in self._groups:
            axis = axis_offsets(size, rate)
            rx, ry, rz = (ranks[a][corners[:, a, None] + axis] for a in range(3))
            flat = (rx[:, :, None] * my + ry[:, None, :])[..., None] * mz
            flat = flat + rz[:, None, None, :]
            rows = offsets[:, None] + np.arange(len(axis) ** 3)
            index[rows] = flat.reshape(len(corners), -1)
        index.setflags(write=False)
        return index

    def metadata(self) -> np.ndarray:
        """Packed 5-int-per-cell metadata (paper layout): the table, flat.

        Read-only: the serializer ships it as a zero-copy segment, so every
        encode of the same pattern reuses one buffer.
        """
        return self.table.reshape(-1)

    def cell_sizes(self) -> np.ndarray:
        """Edge lengths parallel to the packed metadata (read-only)."""
        return self.sizes

    @property
    def nbytes(self) -> int:
        """Bytes of the table and the edges."""
        return int(self.table.nbytes + self.sizes.nbytes)

    @property
    def derived_nbytes(self) -> int:
        """Upper bound of the bytes this pattern holds once every cached
        array is derived, what a cache of patterns weighs them by.

        Per cell: the table and edges (24 B), their copy in
        :attr:`geometry_key` (24 B) and the per-group corners and offsets
        (32 B).  Per sample: :attr:`sample_coords` (24 B) and
        :attr:`box_gather_index` (at most 8 B).  Per grid point of an
        axis: the three axis coordinate sets (at most 8 B each).
        """
        return 80 * self.num_cells + 32 * self.sample_count + 24 * self.n

    @cached_property
    def geometry_key(self) -> Tuple[int, bytes, bytes]:
        """Hashable content key of the cell geometry: ``(n, metadata
        bytes, sizes bytes)``.

        Equal for congruent patterns however they were built or decoded;
        what data-independent per-pattern work (reconstruction plans) is
        cached under.  The sub-domain fields are not part of it: they
        label the pattern, the cells alone decide where samples sit.
        """
        return (self.n, self.table.tobytes(), self.sizes.tobytes())

    def metadata_nbytes(self) -> int:
        """Bytes of octree metadata (int32 layout)."""
        return int(self.table.nbytes)

    def rate_histogram(self) -> Dict[int, int]:
        """Sample counts per rate (the per-band densities behind Fig 3),
        rates in the order they first appear in the table."""
        rates = self.table[:, 3]
        unique, first, inverse = np.unique(
            rates, return_index=True, return_inverse=True
        )
        totals = np.zeros(len(unique), dtype=np.int64)
        np.add.at(totals, inverse.reshape(-1), samples_per_axis(self.sizes, rates) ** 3)
        return {int(unique[g]): int(totals[g]) for g in np.argsort(first)}

    def occupancy_slice(self, z: int) -> np.ndarray:
        """Boolean ``(n, n)`` mask of retained samples in plane ``z``
        (the raw material of the paper's Fig 3 rendering)."""
        if not 0 <= z < self.n:
            raise ConfigurationError(f"z={z} outside grid of size {self.n}")
        mask = np.zeros((self.n, self.n), dtype=bool)
        for size, rate, corners, _offsets in self._groups:
            axis = axis_offsets(size, rate)
            hit = corners[np.isin(z - corners[:, 2], axis)]
            xs = hit[:, 0, None] + axis
            ys = hit[:, 1, None] + axis
            mask[xs[:, :, None], ys[:, None, :]] = True
        return mask


#: the eight octants of a cube in the order the subdivision visits them:
#: x outermost, z innermost
_OCTANTS = np.array(
    [(dx, dy, dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)], dtype=np.int64
)


def _morton_keys(corners: np.ndarray, bits: int) -> np.ndarray:
    """Interleave the corners' bits, most significant level first and x, y,
    z within a level: each key spells the cell's path from the root."""
    keys = np.zeros(len(corners), dtype=np.int64)
    for bit in range(bits - 1, -1, -1):
        for axis in range(3):
            keys = keys << 1 | (corners[:, axis] >> bit & 1)
    return keys


def _build(policy: BandedRatePolicy, min_cell: int) -> SamplingPattern:
    """The octree of ``policy`` over its grid, as a pattern.

    Refines level by level: all cells of one edge are checked against the
    policy in one :meth:`~BandedRatePolicy.region_rates` call, and those
    whose rate is not uniform split into octants.  A leaf takes the finest
    rate its region requires, clamped to its edge.  Leaves are disjoint,
    so sorting them by the Morton key of their corners lists them in the
    depth-first order of recursive subdivision, which is the order the
    table's cumulative counts follow.
    """
    n = check_grid_size(policy.n)
    min_cell = check_positive_int(min_cell, "min_cell")
    corners = np.zeros((1, 3), dtype=np.int64)
    size = n
    found = []
    while len(corners):
        rmin, rmax = policy.region_rates(corners, size)
        leaf = (rmin == rmax) | (size <= min_cell) | (size == 1)
        found.append((corners[leaf], size, np.minimum(rmin[leaf], size)))
        corners = (corners[~leaf, None, :] + _OCTANTS * (size // 2)).reshape(-1, 3)
        size //= 2
    corners = np.concatenate([c for c, _size, _rates in found])
    sizes = np.concatenate([np.full(len(c), s) for c, s, _rates in found])
    rates = np.concatenate([r for _c, _size, r in found])
    order = np.argsort(_morton_keys(corners, n.bit_length() - 1))
    table, sizes = pack_table(corners[order], sizes[order], rates[order])
    return SamplingPattern(
        n=n,
        table=table,
        sizes=sizes,
        subdomain_corner=policy.corner,
        subdomain_size=policy.k,
    )


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
    return _build(policy, min_cell)


def build_box_pattern(
    n: int,
    shape: Tuple[int, int, int],
    corner: Tuple[int, int, int],
    r_near: int = 2,
    r_mid: int = 8,
    r_far: int = 32,
    min_cell: int = 1,
) -> SamplingPattern:
    """Banded adaptive pattern around a rectangular sub-domain: the bands
    scale with the box's largest edge, which also labels the pattern as
    its ``subdomain_size``, and there is no boundary band."""
    shape = tuple(int(s) for s in shape)
    policy = BandedRatePolicy(
        n=n,
        k=max(shape),
        corner=tuple(int(c) for c in corner),
        r_near=r_near,
        r_mid=r_mid,
        r_far=r_far,
        boundary_width=0,
        shape=shape,
    )
    return _build(policy, min_cell)


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
    return _build(policy, 1)
