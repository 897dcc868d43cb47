"""Input distribution: each rank receives only what it convolves.

Rank 0 scatters the field in-mesh, under the ``bcast`` wire category; the
kernel never crosses the mesh, it rides on a rank's job message.  A
receiving rank treats both as hostile: every length, shape and dtype is
checked against what the job's own configuration allows *before*
anything is allocated or cached, and a rejected payload raises
:class:`~repro.errors.InputFrameError`.

**The kernel** is the driver's to name, by content.  A spectrum the
caller gives goes by a SHA-256 key of its dtype, shape and bytes
(:func:`kernel_key`); the default Gaussian of a job's config goes by its
descriptor, and every rank evaluates it for itself, so no default kernel
bytes travel at all.  The driver keeps a private read-only copy of every
array it has named (:class:`KernelBook`), so a caller's array that is
bitwise one of them is named without hashing it again.  A standing rank keeps the kernels it is sent in a byte-bounded
spectrum table (:class:`~repro.util.lru.WeightedLRU` of
:data:`SPECTRUM_TABLE_BYTES`, keyed on content) and reports its keys when
it joins a mesh and with every result, so the driver attaches the array
to a job message only for a rank whose table lacks the key: a kernel
reaches a standing rank once, a replacement rank or an evicted entry
simply misses, and no rank can compute with a stale kernel.  The rank's
half is :func:`job_spectrum`: it checks an attached array's shape, dtype
and key before it caches a copy, and a key it lacks with nothing attached
is an error.  A cold rank is named no key: it convolves with the array it
is handed, or the default kernel, and keeps nothing.

**The field** (:func:`scatter_blocks`).  The driver cuts the ``k^3``
blocks of the field's active sub-domains once and hands them to rank 0,
which keeps its own and sends every peer one frame of only its
``(index, block)`` pairs — no rank is
handed an ``n^3`` field, and rank 0 computes on the same
``(sub-domain, block)`` pairs its peers decode; a malformed frame's error
carries the offset of the offending field.

Scatter frame::

    offset  size       field
    0       8          count (int64)
    8       8          k     (int64)
    16      8*count    sub-domain indices (int64)
    ...     8*count*k^3  blocks, float64, C order
"""

from __future__ import annotations

import hashlib
import struct
from typing import Collection, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.dist.collectives import TAG_FIELD, Communicator
from repro.dist.wire import FramePayload, Segments
from repro.errors import InputFrameError
from repro.kernels.gaussian import GaussianKernel
from repro.util.lru import WeightedLRU

#: Byte bound of a standing rank's spectrum table, and of the driver's
#: copies (a float64 ``n = 256`` spectrum is 128 MiB).
SPECTRUM_TABLE_BYTES = 256 << 20

_BLOCKS_HEADER = struct.Struct("<qq")
_KERNEL_DTYPES = ("<f4", "<f8", "<c8", "<c16")
_DESCRIPTOR = struct.Struct("<cqd")

Chunks = List[Tuple[SubDomain, np.ndarray]]


# -- the kernel ------------------------------------------------------------
def default_spectrum(config) -> np.ndarray:
    """The job's default kernel spectrum (Gaussian of ``config.sigma``)."""
    return GaussianKernel(n=config.n, sigma=config.sigma).spectrum()


def _descriptor_key(config) -> bytes:
    """The key of ``config``'s default kernel: its family and parameters."""
    return _DESCRIPTOR.pack(b"G", config.n, config.sigma)


def kernel_key(spectrum: np.ndarray) -> bytes:
    """The content key of a kernel array: its dtype, shape and bytes hashed."""
    digest = hashlib.sha256(f"{spectrum.dtype.str}{spectrum.shape}".encode())
    digest.update(np.ascontiguousarray(spectrum))
    return b"H" + digest.digest()


def _bits(array: np.ndarray) -> np.ndarray:
    """``array``'s bytes as unsigned words: ``-0.0`` differs from ``0.0``."""
    flat = np.ascontiguousarray(array).reshape(-1)
    return flat.view(np.uint64 if flat.nbytes % 8 == 0 else np.uint8)


def _keep(spectra: Optional[WeightedLRU], key: bytes, array: np.ndarray) -> np.ndarray:
    """A private read-only copy of ``array``, cached under ``key``."""
    array = np.array(array)
    array.flags.writeable = False
    return array if spectra is None else spectra.put(key, array, array.nbytes)


class KernelBook:
    """The driver's kernels by content key (see the module docstring)."""

    def __init__(self) -> None:
        self._copies: WeightedLRU = WeightedLRU(SPECTRUM_TABLE_BYTES)

    def name(
        self, config, spectrum: Optional[np.ndarray]
    ) -> Tuple[bytes, Optional[np.ndarray]]:
        """The key ``spectrum`` goes by and the driver's copy of it, which
        is what ships; ``None`` is the default kernel, which never ships.
        Only an array that is bitwise none of the copies is hashed."""
        if spectrum is None:
            return _descriptor_key(config), None
        spectrum = np.asarray(spectrum)
        for key, copy in reversed(self._copies.items()):
            if (copy.shape, copy.dtype) == (spectrum.shape, spectrum.dtype) and (
                np.array_equal(_bits(copy), _bits(spectrum))
            ):
                self._copies.get(key)  # now the most recently used
                return key, copy
        key = kernel_key(spectrum)
        return key, _keep(self._copies, key, spectrum)


def job_spectrum(
    config,
    key: Optional[bytes],
    spectrum: Optional[np.ndarray],
    spectra: Optional[WeightedLRU],
) -> np.ndarray:
    """The spectrum this rank convolves with in a job that names the
    kernel ``key`` (see the module docstring).

    ``spectrum`` is the array the job message attached, if any; ``spectra``
    the rank's standing table.  A cold rank (``key=None``) keeps nothing
    and checks nothing: it convolves with ``spectrum``, or the default
    kernel.  An attached array is checked and cached only when the table
    lacks ``key``; a held key costs one lookup.
    """
    if key is None:
        return default_spectrum(config) if spectrum is None else spectrum
    cached = None if spectra is None else spectra.get(key)
    if cached is not None:
        return cached
    if spectrum is None:
        if key != _descriptor_key(config):
            raise InputFrameError(
                f"the job names kernel {key[:9].hex()}..., which this rank "
                "neither holds nor was sent"
            )
        return _keep(spectra, key, default_spectrum(config))
    spectrum = np.asarray(spectrum)
    if spectrum.shape != (config.n,) * 3:
        problem = f"its shape {spectrum.shape} is not the job's ({config.n},)*3"
    elif spectrum.dtype.str not in _KERNEL_DTYPES:
        problem = f"its dtype {spectrum.dtype} is not one of {_KERNEL_DTYPES}"
    elif kernel_key(spectrum) != key:
        problem = "it does not hash to the key the job names"
    else:
        return _keep(spectra, key, spectrum)
    raise InputFrameError(f"kernel array rejected: {problem}")


# -- the field -------------------------------------------------------------
def encode_blocks(k: int, chunks: Iterable[Tuple[SubDomain, np.ndarray]]) -> Segments:
    """The scatter frame for one rank's ``(sub-domain, block)`` pairs."""
    chunks = list(chunks)
    indices = [sub.index for sub, _block in chunks]
    head = _BLOCKS_HEADER.pack(len(chunks), k) + struct.pack(
        f"<{len(indices)}q", *indices
    )
    blocks = [np.ascontiguousarray(block, dtype="<f8").data for _s, block in chunks]
    return Segments([head, *blocks])


def decode_blocks(
    payload: FramePayload,
    decomposition: DomainDecomposition,
    owned: Collection[int],
) -> Chunks:
    """Parse a scatter frame into ``(sub-domain, block)`` pairs; the
    blocks alias ``payload``.  ``owned`` holds the sub-domain indices the
    receiving rank may be sent."""
    view = memoryview(payload)
    if view.nbytes < _BLOCKS_HEADER.size:
        raise InputFrameError(
            f"truncated scatter header: {view.nbytes} of "
            f"{_BLOCKS_HEADER.size} bytes",
            offset=view.nbytes,
        )
    count, k = _BLOCKS_HEADER.unpack_from(view)
    if k != decomposition.k:
        raise InputFrameError(
            f"scatter frame carries k={k}, the job has k={decomposition.k}",
            offset=8,
        )
    if not 0 <= count <= len(owned):
        raise InputFrameError(
            f"scatter frame declares {count} blocks for a rank that owns "
            f"{len(owned)} sub-domains",
            offset=0,
        )
    values_offset = _BLOCKS_HEADER.size + 8 * count
    expected = values_offset + 8 * count * k**3
    if view.nbytes != expected:
        raise InputFrameError(
            f"scatter frame is {view.nbytes} bytes, {count} blocks of "
            f"{k}^3 float64 need {expected}",
            offset=min(view.nbytes, expected),
        )
    indices = struct.unpack_from(f"<{count}q", view, _BLOCKS_HEADER.size)
    seen = set()
    for position, index in enumerate(indices):
        offset = _BLOCKS_HEADER.size + 8 * position
        if index not in owned:
            raise InputFrameError(
                f"sub-domain index {index} is not one the receiving rank "
                "owns (out of range, or another rank's)",
                offset=offset,
            )
        if index in seen:
            raise InputFrameError(
                f"sub-domain {index} appears twice", offset=offset
            )
        seen.add(index)
    blocks = np.frombuffer(view, dtype="<f8", offset=values_offset)
    blocks = blocks.reshape(count, k, k, k)
    return [
        (decomposition.subdomain(index), blocks[position])
        for position, index in enumerate(indices)
    ]


def scatter_blocks(
    comm: Communicator,
    decomposition: DomainDecomposition,
    shares: List[List[SubDomain]],
    blocks: Optional[Chunks],
) -> Chunks:
    """Hand every rank the blocks it convolves (SPMD); returns this
    rank's ``(sub-domain, block)`` pairs.

    ``shares[r]`` are the sub-domains rank ``r`` owns; ``blocks`` counts
    on rank 0 only: the job's active ``(sub-domain, k^3 block)`` pairs,
    cut once by the driver (:meth:`~repro.core.decomposition
    .DomainDecomposition.active_blocks`).  A rank is sent the pairs of
    its share; rank 0 keeps its own pairs in the form its peers decode
    theirs to.
    """
    if comm.rank != 0:
        payload = comm.scatter(None, tag=TAG_FIELD)
        owned = {sub.index for sub in shares[comm.rank]}
        return decode_blocks(payload, decomposition, owned)
    owner = {sub.index: rank for rank, share in enumerate(shares) for sub in share}
    chunks: List[Chunks] = [[] for _ in shares]
    for sub, block in blocks:
        chunks[owner[sub.index]].append((sub, block))
    frames: List[FramePayload] = [b""]
    frames += [encode_blocks(decomposition.k, share) for share in chunks[1:]]
    comm.scatter(frames, tag=TAG_FIELD)
    return chunks[0]
