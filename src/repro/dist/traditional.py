"""The traditional distributed FFT convolution — the Fig 1(a) baseline.

Forward distributed 3D FFT, rank-local pointwise multiply with the kernel
spectrum, inverse distributed 3D FFT, written as per-rank code over a
:class:`~repro.dist.collectives.Communicator`.  Two classic decompositions
of the ``n^3`` grid (:class:`FftGrid`):

- **slab** — rank ``r`` owns ``n/P`` x-planes.  One transpose per
  transform (y and z sweeps, swap, x sweep); needs ``P | n``.
- **pencil** — a ``px x py`` process grid, rank ``(i, j) = i * py + j``,
  owns z-pencils.  Two transposes per transform (z sweep, z<->y swap in
  the rank's row, y sweep, y<->x swap in its column, x sweep): P3DFFT's
  2-D process grid, the "two or three" exchanges of §2.1 and the factor 2
  of Eq 1.

Every transpose is one :meth:`Communicator.alltoall` over the whole
communicator — peers outside the rank's row or column get an empty frame
— counted under the ``data`` category of the rank's
:class:`~repro.dist.ledger.WireLedger`.  So one all-to-all round is
``P - 1`` sent data frames on every rank, and a convolution is 2 rounds
(slab) or 4 (pencil).  Rank 0 scatters the input blocks (``bcast``
category); each rank slices its kernel block itself, so no kernel byte
travels.  The result is bitwise that of the same axis sweeps run serially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.collectives import TAG_TRANSPOSE, Communicator
from repro.dist.ledger import CATEGORY_BCAST, CATEGORY_DATA, alltoall_rounds
from repro.dist.runtime import run_local
from repro.errors import (
    CommunicationError,
    ConfigurationError,
    RankFailure,
    ShapeError,
)
from repro.util.validation import check_divides, check_positive_int

@dataclass(frozen=True)
class FftGrid:
    """Which block of the grid each rank holds, before and after a transform.

    A slab decomposition is the ``P x 1`` grid whose row transposes are
    skipped; a pencil decomposition transposes in rows and columns.
    """

    n: int
    px: int
    py: int
    mode: str = "pencil"

    @classmethod
    def for_ranks(
        cls,
        n: int,
        num_ranks: int,
        mode: str = "pencil",
        grid: Optional[Tuple[int, int]] = None,
    ) -> "FftGrid":
        """The decomposition of an ``n^3`` grid over ``num_ranks`` ranks;
        a pencil ``grid`` defaults to the most square ``px x py``."""
        n = check_positive_int(n, "n")
        if mode == "slab":
            px, py = num_ranks, 1
        elif mode == "pencil":
            px, py = grid if grid is not None else _square_factors(num_ranks)
        else:
            raise ConfigurationError(f"mode must be 'slab' or 'pencil', got {mode!r}")
        if px * py != num_ranks:
            raise ConfigurationError(
                f"process grid {px}x{py} != communicator size {num_ranks}"
            )
        check_divides(px, n, "px | n")
        check_divides(py, n, "py | n")
        return cls(n=n, px=px, py=py, mode=mode)

    def input_slices(self, rank: int) -> Tuple[slice, slice, slice]:
        """The rank's input block: an x-slab, or a z-pencil ``(bx, by, n)``."""
        i, j = divmod(rank, self.py)
        bx, by = self.n // self.px, self.n // self.py
        return slice(i * bx, (i + 1) * bx), slice(j * by, (j + 1) * by), slice(None)

    def spectrum_slices(self, rank: int) -> Tuple[slice, slice, slice]:
        """The rank's block after a forward transform: all x, its y and z spans."""
        x, y, _z = self.input_slices(rank)
        return slice(None), x, y

    def row(self, rank: int) -> List[int]:
        """The ranks sharing ``rank``'s x span, in grid order."""
        i = rank // self.py
        return [i * self.py + j for j in range(self.py)]

    def column(self, rank: int) -> List[int]:
        """The ranks sharing ``rank``'s y span, in grid order."""
        j = rank % self.py
        return [i * self.py + j for i in range(self.px)]


def swap_axes(
    comm: Communicator,
    block: np.ndarray,
    split: int,
    concat: int,
    group: Sequence[int],
) -> np.ndarray:
    """One transpose: cut ``block`` along axis ``split`` into one piece per
    ``group`` member, send piece ``m`` to ``group[m]``, and concatenate
    the pieces received from the group, in group order, along ``concat``.

    One all-to-all round over the whole communicator: ranks outside
    ``group`` are sent an empty frame.
    """
    if not set(group) <= set(range(comm.size)):
        raise CommunicationError(
            f"swap group {list(group)} is not within the {comm.size} ranks"
        )
    pieces = np.split(block, len(group), axis=split)
    payloads: list = [b""] * comm.size
    for dst, piece in zip(group, pieces):
        payloads[dst] = memoryview(np.ascontiguousarray(piece)).cast("B")
    received = comm.alltoall(payloads, tag=TAG_TRANSPOSE, category=CATEGORY_DATA)
    return np.concatenate(
        [
            np.frombuffer(received[src], dtype=block.dtype).reshape(pieces[0].shape)
            for src in group
        ],
        axis=concat,
    )


def fftn(comm: Communicator, grid: FftGrid, block: np.ndarray) -> np.ndarray:
    """Forward 3D FFT of this rank's input block (:meth:`FftGrid.input_slices`);
    returns its spectrum block (:meth:`FftGrid.spectrum_slices`)."""
    rank = comm.rank
    out = np.fft.fft(np.asarray(block).astype(np.complex128), axis=2)
    if grid.mode == "pencil":
        out = swap_axes(comm, out, 2, 1, grid.row(rank))
    out = np.fft.fft(out, axis=1)
    out = swap_axes(comm, out, 1, 0, grid.column(rank))
    return np.fft.fft(out, axis=0)


def ifftn(comm: Communicator, grid: FftGrid, block: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fftn`, retracing its path back to the input layout."""
    rank = comm.rank
    out = np.fft.ifft(block, axis=0)
    out = swap_axes(comm, out, 0, 1, grid.column(rank))
    out = np.fft.ifft(out, axis=1)
    if grid.mode == "pencil":
        out = swap_axes(comm, out, 1, 2, grid.row(rank))
    return np.fft.ifft(out, axis=2)


def convolve_rank(
    comm: Communicator,
    grid: FftGrid,
    field: Optional[np.ndarray],
    spectrum: np.ndarray,
) -> np.ndarray:
    """One rank of the traditional convolution; returns its real output
    block (:meth:`FftGrid.input_slices`).

    ``field`` is given on rank 0 only, which scatters the input blocks;
    ``spectrum`` is the whole kernel spectrum, of which the rank reads
    only its own block.
    """
    payloads = None
    if comm.rank == 0:
        payloads = [
            memoryview(
                np.ascontiguousarray(field[grid.input_slices(dst)], dtype=np.float64)
            ).cast("B")
            for dst in range(comm.size)
        ]
    block = np.frombuffer(
        comm.scatter(payloads, root=0, category=CATEGORY_BCAST), dtype=np.float64
    ).reshape(grid.n // grid.px, grid.n // grid.py, grid.n)
    spec = fftn(comm, grid, block)
    return np.real(ifftn(comm, grid, spec * spectrum[grid.spectrum_slices(comm.rank)]))


@dataclass
class TraditionalRunReport:
    """The assembled result and every rank's wire ledger."""

    result: np.ndarray
    #: each rank's :class:`~repro.dist.ledger.WireLedger` snapshot, by rank
    wire: List[dict]

    @property
    def alltoall_rounds(self) -> int:
        """All-to-all rounds, read off every rank's ledger (they agree)."""
        return alltoall_rounds(self.wire)

    def sent_bytes(self, category: str = CATEGORY_DATA) -> int:
        """Bytes sent under ``category``, summed over ranks, headers included."""
        return sum(
            snap["counters"].get(f"sent.{category}.bytes", 0) for snap in self.wire
        )


def traditional_convolve(
    field: np.ndarray,
    spectrum: np.ndarray,
    num_ranks: int,
    mode: str = "pencil",
) -> TraditionalRunReport:
    """Run the traditional convolution on ``num_ranks`` thread-ranks over
    the loopback transport; raises :class:`~repro.errors.RankFailure`
    naming every rank that failed."""
    field = np.asarray(field, dtype=np.float64)
    spectrum = np.asarray(spectrum)
    n = field.shape[0]
    if field.shape != (n,) * 3 or spectrum.shape != (n,) * 3:
        raise ShapeError(
            f"field {field.shape} and spectrum {spectrum.shape} must be ({n},)*3"
        )
    grid = FftGrid.for_ranks(n, num_ranks, mode)

    def body(comm: Communicator, _abort) -> Tuple[np.ndarray, dict]:
        block = convolve_rank(comm, grid, field if comm.rank == 0 else None, spectrum)
        return block, comm.transport.ledger.snapshot()

    outcome = run_local(num_ranks, body)
    if outcome.failures:
        raise RankFailure(f"traditional convolution failed on ranks {outcome.failures}")
    result = np.empty((n,) * 3, dtype=np.float64)
    for rank, (block, _wire) in outcome.results.items():
        result[grid.input_slices(rank)] = block
    return TraditionalRunReport(
        result=result, wire=[outcome.results[r][1] for r in range(num_ranks)]
    )


def _square_factors(p: int) -> Tuple[int, int]:
    """Most-square factorization ``px * py = p``, ``px <= py``."""
    best = (1, p)
    for px in range(1, int(p**0.5) + 1):
        if p % px == 0:
            best = (px, p // px)
    return best
