"""Input distribution: each rank receives only what it convolves.

Two SPMD steps open every job, both counted under the ``bcast`` wire
category, and both written so that a receiving rank treats the bytes as
hostile — every length is checked against what the job's own
configuration allows *before* anything is allocated or cached, and a
rejected payload raises :class:`~repro.errors.InputFrameError` carrying
the offset of the offending field.

**The kernel** (:func:`share_spectrum`).  Rank 0 announces a *key*: the
descriptor of the job's default Gaussian when it was handed no spectrum
(every rank then evaluates :func:`default_spectrum` itself — no kernel
bytes travel at all), else a SHA-256 digest of the array's wire form
(dtype + shape + bytes).  A rank that holds the digest in its spectrum
table answers *have*; one that does not answers *need*, receives the
array, checks that it hashes to the announced digest, and only then
caches it.  The table is a byte-bounded
:class:`~repro.util.lru.WeightedLRU` keyed on content, so a standing
rank keeps kernels across jobs, a replacement rank or an evicted entry
simply misses, and no rank can compute with a stale kernel.  A cold
rank (one job, no table) caches nothing and copies nothing: rank 0
convolves with the caller's array, and hashes it only to announce it.

**The field** (:func:`scatter_blocks`).  The driver cuts the ``k^3``
blocks of the field's active sub-domains once and hands them to rank 0,
which keeps its own and sends every peer one frame of only its
``(index, block)`` pairs that the job still has to convolve — no rank is
handed an ``n^3`` field, and rank 0 computes on the same
``(sub-domain, block)`` pairs its peers decode.

Scatter frame::

    offset  size       field
    0       8          count (int64)
    8       8          k     (int64)
    16      8*count    sub-domain indices (int64)
    ...     8*count*k^3  blocks, float64, C order

Spectrum frame::

    offset  size  field
    0       4     dtype string (``<f4`` ``<f8`` ``<c8`` ``<c16``), NUL padded
    4       4     zero padding
    8       24    shape (3 x int64), must be ``(n, n, n)``
    32      ...   array bytes, C order
"""

from __future__ import annotations

import hashlib
import struct
from typing import Collection, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.dist.collectives import (
    TAG_FIELD,
    TAG_SPECTRUM,
    TAG_SPECTRUM_KEY,
    TAG_SPECTRUM_NEED,
    Communicator,
)
from repro.dist.ledger import CATEGORY_BCAST
from repro.dist.wire import FramePayload, Segments
from repro.errors import ConfigurationError, InputFrameError
from repro.kernels.gaussian import GaussianKernel
from repro.util.lru import WeightedLRU

#: Byte bound of a standing rank's spectrum table (a float64 ``n = 256``
#: spectrum is 128 MiB).
SPECTRUM_TABLE_BYTES = 256 << 20

_BLOCKS_HEADER = struct.Struct("<qq")
_SPECTRUM_HEADER = struct.Struct("<4s4x3q")
_SPECTRUM_DTYPES = (b"<f4", b"<f8", b"<c8", b"<c16")
_DESCRIPTOR = struct.Struct("<cqd")
_KEY_GAUSSIAN = b"G"
_KEY_DIGEST = b"H"
_DIGEST_KEY_BYTES = 1 + hashlib.sha256().digest_size
_HAVE, _NEED = b"\x01", b"\x00"

Chunks = List[Tuple[SubDomain, np.ndarray]]


# -- the kernel ------------------------------------------------------------
def default_spectrum(config) -> np.ndarray:
    """The job's default kernel spectrum (Gaussian of ``config.sigma``)."""
    return GaussianKernel(n=config.n, sigma=config.sigma).spectrum()


def _descriptor_key(config) -> bytes:
    return _DESCRIPTOR.pack(_KEY_GAUSSIAN, config.n, config.sigma)


def encode_spectrum(spectrum: np.ndarray) -> Segments:
    """The spectrum frame: a header plus a view of the array's bytes."""
    spectrum = np.asarray(spectrum)
    wire_dtype = spectrum.dtype.newbyteorder("<")
    code = wire_dtype.str.encode()
    if code not in _SPECTRUM_DTYPES or spectrum.ndim != 3:
        raise ConfigurationError(
            "a kernel spectrum crossing the wire must be a 3-D float32/64 "
            f"or complex64/128 array, got {spectrum.dtype} {spectrum.shape}"
        )
    data = np.ascontiguousarray(spectrum, dtype=wire_dtype)
    return Segments([_SPECTRUM_HEADER.pack(code, *data.shape), data.data])


def spectrum_digest(payload: FramePayload) -> bytes:
    """The digest key of a spectrum frame: dtype, shape and bytes hashed."""
    digest = hashlib.sha256()
    for part in payload.parts if isinstance(payload, Segments) else (payload,):
        digest.update(part)
    return _KEY_DIGEST + digest.digest()


def decode_spectrum(payload: FramePayload, n: int) -> np.ndarray:
    """Parse a spectrum frame for an ``n^3`` job; the result is a view
    of ``payload``."""
    view = memoryview(payload)
    if view.nbytes < _SPECTRUM_HEADER.size:
        raise InputFrameError(
            f"truncated spectrum header: {view.nbytes} of "
            f"{_SPECTRUM_HEADER.size} bytes",
            offset=view.nbytes,
        )
    code, *shape = _SPECTRUM_HEADER.unpack_from(view)
    code = code.rstrip(b"\0")
    if code not in _SPECTRUM_DTYPES:
        raise InputFrameError(f"unknown spectrum dtype {code!r}", offset=0)
    if tuple(shape) != (n, n, n):
        raise InputFrameError(
            f"spectrum shape {tuple(shape)} is not the job's ({n},)*3", offset=8
        )
    dtype = np.dtype(code.decode())
    expected = _SPECTRUM_HEADER.size + n**3 * dtype.itemsize
    if view.nbytes != expected:
        raise InputFrameError(
            f"spectrum frame is {view.nbytes} bytes, {dtype} ({n},)*3 "
            f"needs {expected}",
            offset=min(view.nbytes, expected),
        )
    spectrum = np.frombuffer(view, dtype=dtype, offset=_SPECTRUM_HEADER.size)
    return spectrum.reshape(n, n, n)


def share_spectrum(
    comm: Communicator,
    config,
    spectrum: Optional[np.ndarray],
    spectra: Optional[WeightedLRU],
) -> Tuple[Optional[bytes], np.ndarray]:
    """Agree on the job's kernel spectrum (SPMD; see the module docstring).

    ``spectrum`` counts on rank 0 only: ``None`` selects the default
    Gaussian of ``config``, which every rank evaluates for itself.
    Returns the spectrum's table key and the spectrum this rank convolves
    with — on a standing rank (a ``spectra`` table), rank 0 included, the
    array held in the table, so what is keyed on the array (a warm
    pipeline) hits job after job.  A cold rank (``spectra=None``) keeps
    nothing: it convolves with the array it was given, and a lone cold
    rank 0 does not hash it (its key is ``None``).
    """

    def keep(key: bytes, value: np.ndarray) -> np.ndarray:
        if spectra is None:
            return value
        # the table outlives the job: an array of its own (not a view of
        # a receive slab or of the caller's array, so its weight is what
        # it holds) nobody writes to
        value = np.array(value)
        value.flags.writeable = False
        return spectra.put(key, value, value.nbytes)

    def table(key: bytes, make) -> Tuple[bytes, np.ndarray]:
        cached = None if spectra is None else spectra.get(key)
        return key, keep(key, make()) if cached is None else cached

    descriptor = _descriptor_key(config)
    if comm.rank == 0:
        if spectrum is None:
            comm.broadcast(descriptor, tag=TAG_SPECTRUM_KEY)
            return table(descriptor, lambda: default_spectrum(config))
        spectrum = np.asarray(spectrum)
        if comm.size == 1 and spectra is None:
            return None, spectrum
        wire = encode_spectrum(spectrum)
        key = spectrum_digest(wire)
        if comm.size > 1:
            comm.broadcast(key, tag=TAG_SPECTRUM_KEY)
            for peer in range(1, comm.size):
                answer = comm.recv_payload(
                    peer, TAG_SPECTRUM_NEED, category=CATEGORY_BCAST
                )
                if answer != _HAVE:
                    comm.send_payload(peer, wire, TAG_SPECTRUM, CATEGORY_BCAST)
        return table(key, lambda: spectrum)

    # a table key must be hashable: copy the <= 33 announced bytes
    key = bytes(comm.broadcast(None, tag=TAG_SPECTRUM_KEY))  # repro-lint: disable=WIRE002
    if key == descriptor:
        return table(key, lambda: default_spectrum(config))
    if len(key) != _DIGEST_KEY_BYTES or key[:1] != _KEY_DIGEST:
        raise InputFrameError(
            f"kernel announcement {key[:16]!r}... is neither this job's "
            "descriptor nor a digest",
            offset=0,
        )
    cached = None if spectra is None else spectra.get(key)
    comm.send_payload(
        0, _NEED if cached is None else _HAVE, TAG_SPECTRUM_NEED, CATEGORY_BCAST
    )
    if cached is not None:
        return key, cached
    payload = comm.recv_payload(0, TAG_SPECTRUM, category=CATEGORY_BCAST)
    if spectrum_digest(payload) != key:
        raise InputFrameError(
            "kernel spectrum does not hash to its announced digest", offset=0
        )
    return key, keep(key, decode_spectrum(payload, config.n))


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
    skip: Collection[int] = (),
) -> Chunks:
    """Hand every rank the blocks it convolves (SPMD); returns this
    rank's ``(sub-domain, block)`` pairs.

    ``shares[r]`` are the sub-domains rank ``r`` owns; ``blocks`` counts
    on rank 0 only: the job's active ``(sub-domain, k^3 block)`` pairs,
    cut once by the driver (:meth:`~repro.core.decomposition
    .DomainDecomposition.active_blocks`).  A rank is sent the pairs of
    its share that are not in ``skip`` (the indices a resumed job's
    checkpoint already holds); rank 0 keeps its own pairs in the form
    its peers decode theirs to.
    """
    if comm.rank != 0:
        payload = comm.scatter(None, tag=TAG_FIELD)
        owned = {sub.index for sub in shares[comm.rank]}
        return decode_blocks(payload, decomposition, owned)
    owner = {sub.index: rank for rank, share in enumerate(shares) for sub in share}
    chunks: List[Chunks] = [[] for _ in shares]
    for sub, block in blocks:
        if sub.index not in skip:
            chunks[owner[sub.index]].append((sub, block))
    frames: List[FramePayload] = [b""]
    frames += [encode_blocks(decomposition.k, share) for share in chunks[1:]]
    comm.scatter(frames, tag=TAG_FIELD)
    return chunks[0]
