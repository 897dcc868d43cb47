"""The paper's 5-integer cell table: packing, validation and cell lattices.

"The octree metadata is stored in an array, with five consecutive integers
capturing the details of one octree cell.  The five numbers represent the
co-ordinates of the corner point (x, y, z), the downsampling rate of that
cell and a count of the total number of samples in the cells that come
before the current cell."  (paper §4)

A pattern *is* that table: one int32 row ``(x, y, z, rate, cumulative
count)`` per cell, in the octree's depth-first order, plus an int32 vector
of cell edge lengths (implied by the tree level in the paper's fully packed
form).  Every function here takes or returns whole arrays; there is no
object per cell.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

#: ints per cell in the packed metadata layout (x, y, z, rate, cum_count)
METADATA_INTS_PER_CELL = 5

#: largest grid edge whose cell sample counts fit int64 (``n^3 < 2^63``)
MAX_GRID = 1 << 20


def check_grid_size(n: int) -> int:
    """``n`` if it is a power of two with ``n^3 < 2^63``, else raise: the
    octree halves cubes exactly, and every count stays in int64."""
    if n < 1 or n & (n - 1) or n > MAX_GRID:
        raise ConfigurationError(
            f"octree grid size must be a power of two at most {MAX_GRID}, got {n}"
        )
    return n


def samples_per_axis(sizes, rates) -> np.ndarray:
    """Retained coordinates per axis of cells of edge ``sizes`` sampled at
    stride ``rates`` (int64, elementwise).

    The stride lattice ``corner, corner+rate, ...`` is *clamped* to include
    the cell's far face, so interpolation inside a cell never extrapolates
    and adjacent cells share supported boundaries: ``ceil(size / rate)``
    strided points plus the far edge when the stride misses it.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    rates = np.asarray(rates, dtype=np.int64)
    base = -(-sizes // rates)
    return base + ((sizes > 1) & ((sizes - 1) % rates != 0))


def axis_offsets(size: int, rate: int) -> np.ndarray:
    """The clamped lattice of one cell axis, relative to the cell corner."""
    offsets = np.arange(0, size, rate, dtype=np.intp)
    if offsets[-1] != size - 1:
        offsets = np.append(offsets, size - 1)
    return offsets


def pack_table(corners, sizes, rates) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(C, 5)`` int32 table and int32 edges of cells given as arrays.

    Fills each row's cumulative count, "the number of samples in all
    preceding cells" — the cell's offset into the flat sample-value array,
    which is what "helps to decode the octree".
    """
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1)
    rates = np.asarray(rates, dtype=np.int64).reshape(-1)
    table = np.empty((len(sizes), METADATA_INTS_PER_CELL), dtype=np.int32)
    table[:, :3] = np.asarray(corners, dtype=np.int64).reshape(-1, 3)
    table[:, 3] = rates
    counts = samples_per_axis(sizes, rates) ** 3
    table[:, 4] = np.cumsum(counts) - counts
    return table, sizes.astype(np.int32)


def decode_metadata(
    metadata, sizes, n: int, offset: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a packed table against an ``n^3`` grid and return it.

    Returns ``(table, sizes)``: read-only ``(C, 5)`` int32 rows and ``C``
    int32 edges, views of the input.  ``offset`` is the table's byte
    offset in its record; the edges follow the table there.

    Before any count arithmetic, every cell must be a cube of power-of-two
    edge at most ``n``, with a rate of at least 1, on a corner that is a
    multiple of its edge and ends inside the grid.  Then every cumulative
    count must be the samples of the cells before it.  The first cell that
    breaks a rule raises :class:`ConfigurationError` naming the cell and
    the byte offset of the field at fault.
    """
    check_grid_size(n)
    metadata = np.asarray(metadata, dtype=np.int32)
    if metadata.ndim != 1 or metadata.size % METADATA_INTS_PER_CELL != 0:
        raise ConfigurationError(
            f"metadata length {metadata.size} is not a multiple of "
            f"{METADATA_INTS_PER_CELL}"
        )
    n_cells = metadata.size // METADATA_INTS_PER_CELL
    sizes = np.asarray(sizes, dtype=np.int32).reshape(-1)
    if len(sizes) != n_cells:
        raise ConfigurationError(
            f"got {len(sizes)} sizes for {n_cells} encoded cells"
        )
    table = metadata.reshape(n_cells, METADATA_INTS_PER_CELL).view()
    sizes = sizes.view()
    row = METADATA_INTS_PER_CELL * 4
    where = f"(cell metadata at offset {offset})"
    edge = sizes.astype(np.int64)
    rates = table[:, 3].astype(np.int64)
    corners = table[:, :3].astype(np.int64)
    bad_size = (edge < 1) | (edge > n) | (edge & (edge - 1) != 0)
    safe = np.where(bad_size, 1, edge)[:, None]
    bad_corner = ((corners % safe != 0) | (corners < 0) | (corners + safe > n)).any(axis=1)
    bad = np.flatnonzero(bad_size | (rates < 1) | bad_corner)
    if bad.size:
        i = int(bad[0])
        if bad_size[i]:
            raise ConfigurationError(
                f"cell {i} has edge {int(edge[i])} at byte "
                f"{offset + n_cells * row + 4 * i}: not a power of two at "
                f"most n={n} {where}"
            )
        if rates[i] < 1:
            raise ConfigurationError(
                f"cell {i} has rate {int(rates[i])} at byte "
                f"{offset + i * row + 12}: rates start at 1 {where}"
            )
        raise ConfigurationError(
            f"cell {i} at byte {offset + i * row} has corner "
            f"{tuple(corners[i].tolist())}: not on its edge-{int(edge[i])} "
            f"lattice inside grid n={n} {where}"
        )
    counts = samples_per_axis(edge, rates) ** 3
    expected = np.cumsum(counts) - counts
    mismatch = np.flatnonzero(table[:, 4] != expected)
    if mismatch.size:
        i = int(mismatch[0])
        raise ConfigurationError(
            f"cumulative-count invariant violated at cell {i}: stored "
            f"{int(table[i, 4])}, expected {int(expected[i])} at byte "
            f"{offset + i * row + 16} {where}"
        )
    table.setflags(write=False)
    sizes.setflags(write=False)
    return table, sizes
