"""Checkpointing compressed results — fault tolerance for long runs.

A sub-domain's compressed convolution result is small (that is the whole
point), so checkpointing the accumulation inputs is cheap: if a rank dies
mid-run, only *its* chunks need recomputing — everyone else's compressed
results restore from the checkpoint, and the rest come from
:meth:`~repro.core.pipeline.LowCommConvolution3D.convolve_chunks` over
the sub-domains the checkpoint lacks.  The container format is a simple
length-prefixed concatenation of the self-describing
:mod:`repro.octree.serialize` records, one per (sub-domain index, field),
so the driver and a resumed job decode it without the job's
configuration.  The per-job exchange does not use it: ranks send each
other values only (:mod:`repro.dist.worker`).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.decomposition import SubDomain
from repro.errors import ConfigurationError
from repro.octree.compress import CompressedField
from repro.octree.serialize import deserialize_compressed, serialize_segments
from repro.util import copytrack

_CHECKPOINT_MAGIC = b"LC3DCKPT"
_ENTRY_HEADER = struct.Struct("<qq")  # (subdomain index, payload length)

Blob = Union[bytes, bytearray, memoryview]


def checkpoint_segments(
    fields: Sequence[Tuple[SubDomain, CompressedField]],
    precision: str = "float64",
    values: Optional[Sequence[np.ndarray]] = None,
) -> List[Blob]:
    """Pack (sub-domain, compressed result) pairs as zero-copy segments.

    The returned list interleaves the container framing (magic, count,
    per-entry headers — a few dozen fresh bytes) with the fields'
    :func:`~repro.octree.serialize.serialize_segments` views, which alias
    the fields' own buffers; :func:`join_checkpoint_segments` makes them
    one blob.  ``values`` (one
    :func:`~repro.octree.serialize.encode_values` array per field) lets the
    blob share one encode with the exchange frames cut from the same
    fields.
    """
    parts: List[Blob] = [_CHECKPOINT_MAGIC, struct.pack("<q", len(fields))]
    for i, (sub, field) in enumerate(fields):
        record = serialize_segments(
            field, precision, values=None if values is None else values[i]
        )
        parts.append(_ENTRY_HEADER.pack(sub.index, sum(s.nbytes for s in record)))
        parts.extend(record)
    return parts


def join_checkpoint_segments(parts: Sequence[Blob]) -> bytes:
    """Flatten checkpoint segments to one ``bytes`` (counted join).

    The driver's fault-tolerance mailbox needs a contiguous blob (it
    crosses a multiprocessing pipe).
    """
    return copytrack.measured_join(parts, site=copytrack.SITE_CHECKPOINT_JOIN)


def checkpoint_to_bytes(
    fields: Sequence[Tuple[SubDomain, CompressedField]],
    precision: str = "float64",
) -> bytes:
    """Pack (sub-domain, compressed result) pairs into one checkpoint blob."""
    return join_checkpoint_segments(checkpoint_segments(fields, precision))


def checkpoint_from_bytes(blob: Blob) -> Dict[int, CompressedField]:
    """Unpack a checkpoint blob into ``{sub-domain index: field}``.

    Accepts any bytes-like blob (``bytes`` or a ``memoryview`` over a
    receive arena) and decodes each entry from a zero-copy slice — entry
    values alias the blob, which must stay alive with the result.

    Hardened against truncated or corrupt blobs: every failure mode —
    short reads, negative counts/lengths, duplicate indices, undecodable
    entry payloads — raises :class:`~repro.errors.ConfigurationError`
    with the byte offset and entry index, never a bare ``struct.error``
    or a silently misparsed result.
    """
    blob = memoryview(blob)
    if blob.ndim != 1 or blob.itemsize != 1:
        blob = blob.cast("B")
    if blob[: len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
        raise ConfigurationError("not a checkpoint blob (bad magic)")
    offset = len(_CHECKPOINT_MAGIC)
    if len(blob) < offset + 8:
        raise ConfigurationError(
            f"truncated checkpoint header: {len(blob)} bytes, need "
            f"{offset + 8}"
        )
    (count,) = struct.unpack_from("<q", blob, offset)
    offset += 8
    if count < 0:
        raise ConfigurationError(f"corrupt checkpoint (negative count {count})")
    out: Dict[int, CompressedField] = {}
    for entry in range(count):
        if len(blob) < offset + _ENTRY_HEADER.size:
            raise ConfigurationError(
                f"truncated checkpoint: entry {entry}/{count} header at "
                f"offset {offset} overruns blob of {len(blob)} bytes"
            )
        index, length = _ENTRY_HEADER.unpack_from(blob, offset)
        offset += _ENTRY_HEADER.size
        if length < 0 or len(blob) < offset + length:
            raise ConfigurationError(
                f"truncated checkpoint: entry {entry} (sub-domain {index}) "
                f"declares {length} payload bytes at offset {offset}, blob "
                f"has {len(blob) - offset} left"
            )
        try:
            field = deserialize_compressed(blob[offset : offset + length])
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"corrupt checkpoint entry {entry} (sub-domain {index}) at "
                f"offset {offset}: {exc}"
            ) from exc
        except Exception as exc:  # decode_metadata etc. on garbage bytes
            raise ConfigurationError(
                f"undecodable checkpoint entry {entry} (sub-domain {index}) "
                f"at offset {offset}: {type(exc).__name__}: {exc}"
            ) from exc
        if index in out:
            raise ConfigurationError(
                f"corrupt checkpoint: duplicate sub-domain index {index} "
                f"at entry {entry} (offset {offset})"
            )
        out[int(index)] = field
        offset += length
    if offset != len(blob):
        raise ConfigurationError(
            f"corrupt checkpoint: {len(blob) - offset} trailing bytes after "
            f"{count} entries (offset {offset})"
        )
    return out
