"""Distributed 3D FFTs with real data movement (the Fig 1(a) substrate).

Two classic decompositions:

- **Slab** (:class:`SlabDistributedFFT`): each of P ranks owns ``n/P``
  x-planes.  One all-to-all transpose per transform (local 2D y/z sweep,
  transpose, local x sweep).  Limited to ``P <= n``.
- **Pencil** (:class:`PencilDistributedFFT`): a ``px x py`` process grid
  owns z-pencils.  Two all-to-all transposes per transform (z sweep, z<->y
  swap, y sweep, y<->x swap, x sweep) — the "two or three" exchanges of
  §2.1 and the reason Eq 1 carries its factor of 2.

Both execute the actual numpy block exchange through
:class:`~repro.cluster.comm.SimulatedComm`, so results are bit-identical
to a dense :func:`numpy.fft.fftn` (tested), while the communicator ledger
records the rounds and bytes the paper's analysis counts.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cluster.comm import SimulatedComm
from repro.errors import ConfigurationError, ShapeError
from repro.util.validation import check_divides, check_positive_int


class SlabDistributedFFT:
    """Slab-decomposed distributed 3D FFT (one transpose per transform)."""

    def __init__(self, n: int, comm: SimulatedComm):
        self.n = check_positive_int(n, "n")
        self.comm = comm
        check_divides(comm.size, n, "P | n")
        self.slab = n // comm.size

    # -- layout helpers --------------------------------------------------------
    def scatter(self, field: np.ndarray) -> List[np.ndarray]:
        """Split a dense field into per-rank x-slabs (driver-side setup)."""
        field = np.asarray(field)
        if field.shape != (self.n,) * 3:
            raise ShapeError(f"field shape {field.shape} != ({self.n},)*3")
        return [
            field[r * self.slab : (r + 1) * self.slab].copy()
            for r in range(self.comm.size)
        ]

    def gather_yslabs(self, blocks: List[np.ndarray]) -> np.ndarray:
        """Reassemble a dense array from per-rank y-slab layout."""
        return np.concatenate(blocks, axis=1)

    def gather_xslabs(self, blocks: List[np.ndarray]) -> np.ndarray:
        """Reassemble a dense array from per-rank x-slab layout."""
        return np.concatenate(blocks, axis=0)

    def _transpose_x_to_y(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """All-to-all: x-slab layout -> y-slab layout."""
        p, s = self.comm.size, self.slab
        sends = [
            [blocks[i][:, j * s : (j + 1) * s, :] for j in range(p)] for i in range(p)
        ]
        recv = self.comm.alltoall(sends)
        return [np.concatenate(recv[j], axis=0) for j in range(p)]

    def _transpose_y_to_x(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """All-to-all: y-slab layout -> x-slab layout."""
        p, s = self.comm.size, self.slab
        sends = [
            [blocks[j][i * s : (i + 1) * s, :, :] for i in range(p)] for j in range(p)
        ]
        recv = self.comm.alltoall(sends)
        return [np.concatenate(recv[i], axis=1) for i in range(p)]

    # -- transforms -------------------------------------------------------------
    def forward(self, xslabs: List[np.ndarray]) -> List[np.ndarray]:
        """Forward 3D FFT: x-slab input -> y-slab spectrum (1 all-to-all)."""
        local = [
            np.fft.fft(np.fft.fft(b.astype(np.complex128), axis=2), axis=1)
            for b in xslabs
        ]
        yslabs = self._transpose_x_to_y(local)
        return [np.fft.fft(b, axis=0) for b in yslabs]

    def inverse(self, yslabs: List[np.ndarray]) -> List[np.ndarray]:
        """Inverse 3D FFT: y-slab spectrum -> x-slab field (1 all-to-all)."""
        local = [np.fft.ifft(b, axis=0) for b in yslabs]
        xslabs = self._transpose_y_to_x(local)
        return [np.fft.ifft(np.fft.ifft(b, axis=1), axis=2) for b in xslabs]


class PencilDistributedFFT:
    """Pencil-decomposed distributed 3D FFT (two transposes per transform).

    The process grid is ``px x py`` with rank ``(i, j) -> i * py + j``;
    rank (i, j) initially owns ``x in X_i, y in Y_j``, all z.
    """

    def __init__(self, n: int, comm: SimulatedComm, px: int, py: int):
        self.n = check_positive_int(n, "n")
        self.comm = comm
        if px * py != comm.size:
            raise ConfigurationError(
                f"process grid {px}x{py} != communicator size {comm.size}"
            )
        check_divides(px, n, "px | n")
        check_divides(py, n, "py | n")
        self.px, self.py = px, py
        self.bx, self.by = n // px, n // py

    def scatter(self, field: np.ndarray) -> List[np.ndarray]:
        """Dense field -> per-rank z-pencil blocks ``(bx, by, n)``."""
        field = np.asarray(field)
        if field.shape != (self.n,) * 3:
            raise ShapeError(f"field shape {field.shape} != ({self.n},)*3")
        blocks = []
        for i in range(self.px):
            for j in range(self.py):
                blocks.append(
                    field[
                        i * self.bx : (i + 1) * self.bx,
                        j * self.by : (j + 1) * self.by,
                        :,
                    ].copy()
                )
        return blocks

    def gather_final(self, blocks: List[np.ndarray]) -> np.ndarray:
        """Reassemble from the post-forward x-pencil layout.

        After :meth:`forward`, rank (i, j) holds ``(n, bx_y, by_z)`` — all
        x, ``y in X_i``-sized span, ``z in Z_j``.
        """
        rows = []
        for i in range(self.px):
            cols = [blocks[i * self.py + j] for j in range(self.py)]
            rows.append(np.concatenate(cols, axis=2))
        return np.concatenate(rows, axis=1)

    def _rank(self, i: int, j: int) -> int:
        return i * self.py + j

    def _swap_z_y(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """Row all-to-all: z-pencils (bx, by, n) -> y-pencils (bx, n, by).

        Ranks in the same row i exchange; one machine-wide collective round.
        """
        p = self.comm.size
        empty = np.empty((0,), dtype=np.complex128)
        sends = [[empty] * p for _ in range(p)]
        for i in range(self.px):
            for j in range(self.py):
                src = self._rank(i, j)
                for jj in range(self.py):
                    # chunk of z destined for rank (i, jj)
                    sends[src][self._rank(i, jj)] = blocks[src][
                        :, :, jj * self.by : (jj + 1) * self.by
                    ]
        recv = self.comm.alltoall(sends)
        out: List[np.ndarray] = [None] * p  # type: ignore[list-item]
        for i in range(self.px):
            for jj in range(self.py):
                dst = self._rank(i, jj)
                parts = [recv[dst][self._rank(i, j)] for j in range(self.py)]
                out[dst] = np.concatenate(parts, axis=1)
        return out

    def _swap_y_x(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """Column all-to-all: (bx, n, by) y-layout -> (n, bx, by) x-layout."""
        p = self.comm.size
        empty = np.empty((0,), dtype=np.complex128)
        sends = [[empty] * p for _ in range(p)]
        for i in range(self.px):
            for j in range(self.py):
                src = self._rank(i, j)
                for ii in range(self.px):
                    sends[src][self._rank(ii, j)] = blocks[src][
                        :, ii * self.bx : (ii + 1) * self.bx, :
                    ]
        recv = self.comm.alltoall(sends)
        out: List[np.ndarray] = [None] * p  # type: ignore[list-item]
        for ii in range(self.px):
            for j in range(self.py):
                dst = self._rank(ii, j)
                parts = [recv[dst][self._rank(i, j)] for i in range(self.px)]
                out[dst] = np.concatenate(parts, axis=0)
        return out

    def forward(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """Forward transform: 3 local sweeps, 2 all-to-all transposes."""
        stage_z = [np.fft.fft(b.astype(np.complex128), axis=2) for b in blocks]
        swapped = self._swap_z_y(stage_z)
        stage_y = [np.fft.fft(b, axis=1) for b in swapped]
        swapped2 = self._swap_y_x(stage_y)
        return [np.fft.fft(b, axis=0) for b in swapped2]

    def inverse(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """Inverse transform retracing the forward path (2 all-to-alls)."""
        stage_x = [np.fft.ifft(b, axis=0) for b in blocks]
        swapped = self._swap_x_y_back(stage_x)
        stage_y = [np.fft.ifft(b, axis=1) for b in swapped]
        swapped2 = self._swap_y_z_back(stage_y)
        return [np.fft.ifft(b, axis=2) for b in swapped2]

    def _swap_x_y_back(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """Inverse of :meth:`_swap_y_x`: (n, bx, by) -> (bx, n, by)."""
        p = self.comm.size
        empty = np.empty((0,), dtype=np.complex128)
        sends = [[empty] * p for _ in range(p)]
        for ii in range(self.px):
            for j in range(self.py):
                src = self._rank(ii, j)
                for i in range(self.px):
                    sends[src][self._rank(i, j)] = blocks[src][
                        i * self.bx : (i + 1) * self.bx, :, :
                    ]
        recv = self.comm.alltoall(sends)
        out: List[np.ndarray] = [None] * p  # type: ignore[list-item]
        for i in range(self.px):
            for j in range(self.py):
                dst = self._rank(i, j)
                parts = [recv[dst][self._rank(ii, j)] for ii in range(self.px)]
                out[dst] = np.concatenate(parts, axis=1)
        return out

    def _swap_y_z_back(self, blocks: List[np.ndarray]) -> List[np.ndarray]:
        """Inverse of :meth:`_swap_z_y`: (bx, n, by) -> (bx, by, n)."""
        p = self.comm.size
        empty = np.empty((0,), dtype=np.complex128)
        sends = [[empty] * p for _ in range(p)]
        for i in range(self.px):
            for jj in range(self.py):
                src = self._rank(i, jj)
                for j in range(self.py):
                    sends[src][self._rank(i, j)] = blocks[src][
                        :, j * self.by : (j + 1) * self.by, :
                    ]
        recv = self.comm.alltoall(sends)
        out: List[np.ndarray] = [None] * p  # type: ignore[list-item]
        for i in range(self.px):
            for j in range(self.py):
                dst = self._rank(i, j)
                parts = [recv[dst][self._rank(i, jj)] for jj in range(self.py)]
                out[dst] = np.concatenate(parts, axis=2)
        return out
