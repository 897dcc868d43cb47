"""Compressed field representation: sampling pattern + sample values.

A :class:`CompressedField` is what a worker communicates in the paper's
final accumulation exchange: the flat array of sample values (in packed
cell order) plus the octree metadata that locates them.  The memory
footprint is ``8 * M`` bytes of values plus ``20`` bytes of metadata per
cell — the reduction that makes Eq 6 beat Eq 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ShapeError
from repro.octree.cell import METADATA_INTS_PER_CELL, _samples_per_axis_vec
from repro.octree.sampling import SamplingPattern


@dataclass
class CompressedField:
    """Sample values over a :class:`SamplingPattern`.

    Attributes
    ----------
    pattern:
        The octree sampling pattern (shared, read-only by convention).
    values:
        Flat float64 array of sample values in packed cell order —
        the order :meth:`SamplingPattern.sample_coords` produces, which is
        the order the paper's cumulative counts index into.
    """

    pattern: SamplingPattern
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ShapeError(f"values must be 1D, got ndim={self.values.ndim}")
        if self.values.size != self.pattern.sample_count:
            raise ShapeError(
                f"{self.values.size} values for a pattern of "
                f"{self.pattern.sample_count} samples"
            )

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, pattern: SamplingPattern
    ) -> "CompressedField":
        """Extract the pattern's samples from a dense ``n^3`` field."""
        dense = np.asarray(dense)
        if dense.shape != (pattern.n,) * 3:
            raise ShapeError(
                f"dense field shape {dense.shape} != pattern grid "
                f"({pattern.n},)*3"
            )
        coords = pattern.sample_coords
        values = dense[coords[:, 0], coords[:, 1], coords[:, 2]]
        return cls(pattern=pattern, values=np.ascontiguousarray(values, dtype=np.float64))

    @property
    def nbytes(self) -> int:
        """Wire size: sample values + octree metadata."""
        return int(self.values.nbytes) + self.pattern.metadata_nbytes()

@dataclass(frozen=True)
class CellSubset:
    """Some of a pattern's cells, in the packed form the wire carries.

    ``metadata`` and ``sizes`` are the kept cells' packed 5-int32 rows and
    edge lengths in packed order, with the cumulative counts re-packed, and
    ``runs`` the half-open ``[start, stop)`` ranges of the source field's
    value array that hold their samples, in that order and merged where
    back to back.  A cell's samples are its own lattice, so the subset's
    values are those runs concatenated: it encodes (with the source
    pattern's grid and sub-domain label) as a field of its own, which
    reconstructs exactly like the source over every box only its cells
    touch.  No cell objects are held, so a cached subset stays small.
    """

    metadata: np.ndarray
    sizes: np.ndarray
    runs: np.ndarray

    @classmethod
    def of(cls, pattern: SamplingPattern, keep: np.ndarray) -> "CellSubset":
        """The cells of ``pattern`` where the boolean ``keep`` is set."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (pattern.num_cells,):
            raise ShapeError(
                f"keep mask of shape {keep.shape} for {pattern.num_cells} cells"
            )
        ids = np.flatnonzero(keep)
        meta = pattern.metadata().reshape(-1, METADATA_INTS_PER_CELL)[ids]
        sizes = pattern.cell_sizes()[ids]
        counts = _samples_per_axis_vec(
            sizes.astype(np.int64), meta[:, 3].astype(np.int64)
        ) ** 3
        starts = meta[:, 4].astype(np.int64)
        stops = starts + counts
        # a run breaks wherever a kept cell does not start where the last
        # kept one stopped
        breaks = np.flatnonzero(starts[1:] != stops[:-1]) + 1
        firsts = np.concatenate(([0], breaks)) if ids.size else breaks
        lasts = np.concatenate((breaks - 1, [ids.size - 1])) if ids.size else breaks
        runs = np.column_stack((starts[firsts], stops[lasts]))
        meta[:, 4] = np.cumsum(counts) - counts
        for array in (meta, sizes, runs):
            array.setflags(write=False)
        return cls(metadata=meta.reshape(-1), sizes=sizes, runs=runs)

    @property
    def num_cells(self) -> int:
        return len(self.sizes)

    @property
    def sample_count(self) -> int:
        return int((self.runs[:, 1] - self.runs[:, 0]).sum())

    @property
    def nbytes(self) -> int:
        """Bytes held: the packed metadata, cell sizes and runs."""
        return int(self.metadata.nbytes + self.sizes.nbytes + self.runs.nbytes)

    def value_runs(self, values: np.ndarray) -> List[np.ndarray]:
        """Views of a source field's value array (at any precision) that
        hold the subset's samples, in order — their concatenation is the
        subset's value array."""
        return [values[start:stop] for start, stop in self.runs.tolist()]
