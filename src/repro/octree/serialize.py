"""A self-describing byte format for compressed fields.

A compressed field (an octree sampling pattern and its values) is
written as one record, which the serialization benchmarks time and the
paper's storage argument sizes.  This module defines the record's
byte-level format:

``header | cell metadata (5 x int32 per cell) | cell sizes (int32) | values (float64)``

with a 9-field int64 header carrying a magic number, format version, grid
size, sub-domain geometry, counts, and the value precision (float64 or
float32 — the paper's lower-precision compression option).  The sampling
pattern is fully reconstructible from the metadata + sizes, so a record is
self-describing: a reader decodes it without the job's configuration
(the property the paper's "the last entry helps to decode the octree"
remark is about).

The per-job accumulation exchange does not use these records: it carries
only sample values (:func:`encode_values` on the send side,
:func:`decode_values` on the receive side), because every receiver derives
the patterns from the configuration it holds
(:func:`repro.dist.worker.merge_exchanged`).

Zero-copy data plane: :func:`serialize_segments` emits the four sections
as ``memoryview`` segments over the field's own arrays (no join), and
:func:`deserialize_compressed` accepts any bytes-like object and aliases
the float64 values straight out of the buffer (no slice, no cast).  The
only remaining copies are the float32 precision conversions, and those
are counted on the :mod:`repro.util.copytrack` ledger.
:func:`serialize_compressed` keeps the classic one-``bytes`` API as a
counted join of the segments.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.octree.cell import (
    METADATA_INTS_PER_CELL,
    check_grid_size,
    decode_metadata,
)
from repro.octree.compress import CompressedField
from repro.octree.sampling import SamplingPattern
from repro.util import copytrack
from repro.util.lru import WeightedLRU

#: magic number: 'LC3D' as little-endian int
_MAGIC = 0x4C433344
_VERSION = 2
_HEADER_FIELDS = 9  # magic, version, n, k, cx, cy, cz, num_cells, precision

#: precision codes carried in the header
_PRECISION_CODES = {"float64": 0, "float32": 1}
_PRECISION_DTYPES = {0: np.float64, 1: np.float32}

Payload = Union[bytes, bytearray, memoryview]


def _as_view(payload: Payload) -> memoryview:
    """Flat byte view over any bytes-like payload (no copy)."""
    view = memoryview(payload)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    return view


def _byte_view(arr: np.ndarray) -> memoryview:
    """Flat byte view over a contiguous array (no copy)."""
    return memoryview(arr).cast("B")


def encode_values(field: CompressedField, precision: str = "float64") -> np.ndarray:
    """``field``'s value array at wire ``precision``.

    float64 is the field's own buffer (no copy); ``precision="float32"``
    is exactly one counted downcast into a fresh buffer.  Encode once and
    pass the result to the rank's own merge and to every exchange frame
    cut from it, so they all share that one cast.
    """
    _check_precision(precision)
    if precision == "float64":
        return np.ascontiguousarray(field.values, dtype=np.float64)
    # single direct downcast into the output buffer (no float64
    # intermediate) — the one unavoidable copy of the float32 path
    values = np.empty(field.values.shape, dtype=np.float32)
    values[...] = field.values
    copytrack.record(copytrack.SITE_ENCODE_CAST, values.nbytes)
    return values


def decode_values(buffer: Payload, precision: str = "float64") -> np.ndarray:
    """Float64 sample values from ``buffer``, ``precision`` values packed
    back to back (the inverse of :func:`encode_values`).

    float64 aliases the buffer (no copy), so the buffer must outlive the
    values; float32 is exactly one counted promotion into a fresh buffer.
    The caller has checked the buffer's length.
    """
    _check_precision(precision)
    stored = np.frombuffer(buffer, dtype=_PRECISION_DTYPES[_PRECISION_CODES[precision]])
    if stored.dtype == np.float64:
        return stored
    values = np.empty(stored.shape, dtype=np.float64)
    values[...] = stored  # single counted precision promotion
    copytrack.record(copytrack.SITE_DECODE_CAST, values.nbytes)
    return values


def _check_precision(precision: str) -> None:
    if precision not in _PRECISION_CODES:
        raise ConfigurationError(
            f"precision must be one of {sorted(_PRECISION_CODES)}, got {precision!r}"
        )


def serialize_segments(
    field: CompressedField,
    precision: str = "float64",
    values: Optional[np.ndarray] = None,
) -> List[memoryview]:
    """Encode a compressed field as zero-copy wire segments.

    Returns the ``[header, metadata, sizes, values...]`` sections as byte
    ``memoryview`` segments aliasing the pattern's cached metadata arrays
    and the encoded value buffer — nothing is joined or copied.  The
    values are ``values`` when given (:func:`encode_values` of this field
    at ``precision``), else encoded here: float64 aliases the field's own
    buffer, float32 is one counted downcast.  Segment lists feed
    :class:`repro.dist.wire.Segments` for scatter-gather sends, or
    :func:`serialize_compressed` for a contiguous blob.
    """
    if values is None:
        values = encode_values(field, precision)
    elif precision not in _PRECISION_CODES or (
        values.dtype != _PRECISION_DTYPES[_PRECISION_CODES[precision]]
        or values.shape != field.values.shape
    ):
        raise ConfigurationError(
            f"encoded values of dtype {values.dtype} and shape {values.shape} "
            f"do not fit a {precision} encoding of {field.values.shape} samples"
        )
    pattern = field.pattern
    header = np.array(
        [
            _MAGIC,
            _VERSION,
            pattern.n,
            pattern.subdomain_size,
            pattern.subdomain_corner[0],
            pattern.subdomain_corner[1],
            pattern.subdomain_corner[2],
            pattern.num_cells,
            _PRECISION_CODES[precision],
        ],
        dtype=np.int64,
    )
    return [
        _byte_view(header),
        _byte_view(pattern.metadata()),
        _byte_view(pattern.cell_sizes()),
        _byte_view(values),
    ]


def serialize_compressed(
    field: CompressedField, precision: str = "float64"
) -> bytes:
    """Encode a compressed field to one contiguous wire ``bytes``.

    ``precision="float32"`` halves the value payload — the paper's "can be
    compressed further using lower precision" remark — at the cost of
    ~1e-7 relative rounding on the samples (quantified by the serialization
    benchmark).  The join is counted on the copy ledger; transports should
    prefer :func:`serialize_segments` and skip it entirely.
    """
    return copytrack.measured_join(
        serialize_segments(field, precision=precision),
        site=copytrack.SITE_SERIALIZE_JOIN,
    )


def _decode_values(
    view: memoryview,
    offset: int,
    value_dtype,
    expected_values: int,
    out: "np.ndarray | None",
) -> np.ndarray:
    """Decode the value section starting at ``offset`` (zero-copy when
    the stored precision is float64 and no ``out`` buffer is given)."""
    itemsize = np.dtype(value_dtype).itemsize
    stored_bytes = view.nbytes - offset
    if stored_bytes % itemsize:
        raise ConfigurationError(
            f"value payload of {stored_bytes} bytes at offset "
            f"{offset} is not a whole number of {itemsize}-byte "
            "values"
        )
    if stored_bytes // itemsize != expected_values:
        raise ConfigurationError(
            f"payload carries {stored_bytes // itemsize} values at offset "
            f"{offset}, pattern requires {expected_values}"
        )
    if out is None:
        return decode_values(view[offset:], np.dtype(value_dtype).name)
    if out.size < expected_values:
        raise ConfigurationError(
            f"output array of {out.size} values cannot hold the "
            f"{expected_values} values the payload carries"
        )
    target = out[:expected_values]
    target[...] = np.frombuffer(view[offset:], dtype=value_dtype)
    copytrack.record(copytrack.SITE_DESERIALIZE_INTO, target.nbytes)
    return target


#: Decoded :class:`SamplingPattern` objects, interned by content.  The
#: same records are decoded again and again (a decode benchmark reads one
#: record per sub-domain, run after run), and a pattern carries everything
#: derived from its geometry — coordinate sets,
#: packed metadata, the key reconstruction plans are cached under — so
#: decoding the same bytes again returns the same object instead of
#: validating the table and deriving its arrays again.  The key is the
#: exact ``(n, k, corner, metadata bytes, sizes bytes)``: a hit means
#: byte-identical input, for which every check already ran and passed;
#: bytes not seen before (one flipped bit included) go through
#: :func:`decode_metadata` like any first decode.  Bounded by the bytes of
#: the tables held (8 MiB; a banded n=64 / k=16 table is about 3 KB, and
#: it aliases its key's bytes, so the key costs nothing more).
_PATTERNS: "WeightedLRU[SamplingPattern]" = WeightedLRU(max_weight=8 << 20)


def _decode_body(
    view: memoryview,
    offset: int,
    n: int,
    k: int,
    corner: tuple,
    num_cells: int,
    value_dtype,
    out: "np.ndarray | None" = None,
) -> CompressedField:
    """Shared body decoder: metadata + sizes + values starting at ``offset``."""
    meta_bytes = num_cells * METADATA_INTS_PER_CELL * 4
    sizes_bytes = num_cells * 4
    # Explicit length check: frombuffer on a short slice would silently
    # yield fewer ints and misparse the octree rather than fail.
    if view.nbytes < offset + meta_bytes + sizes_bytes:
        raise ConfigurationError(
            f"payload of {view.nbytes} bytes truncated: header declares "
            f"{num_cells} cells needing {meta_bytes + sizes_bytes} metadata "
            f"bytes at offset {offset}"
        )
    sizes_offset = offset + meta_bytes
    values_offset = sizes_offset + sizes_bytes
    # The two geometry sections (24 bytes a cell, never the values) are
    # copied out as the intern key, and a new pattern's table is a view of
    # that copy; on a hit the copy is all the decode costs.
    meta = bytes(view[offset:sizes_offset])  # repro-lint: disable=WIRE002
    sizes = bytes(view[sizes_offset:values_offset])  # repro-lint: disable=WIRE002
    key = (n, k, corner, meta, sizes)
    pattern = _PATTERNS.get(key)
    if pattern is None:
        table, cell_sizes = decode_metadata(
            np.frombuffer(meta, dtype=np.int32),
            np.frombuffer(sizes, dtype=np.int32),
            n,
            offset,
        )
        pattern = SamplingPattern(
            n=n,
            table=table,
            sizes=cell_sizes,
            subdomain_corner=corner,
            subdomain_size=k,
        )
        pattern = _PATTERNS.put(key, pattern, pattern.nbytes)
    values = _decode_values(
        view, values_offset, value_dtype, pattern.sample_count, out
    )
    return CompressedField(pattern=pattern, values=values)


def _deserialize(
    payload: Payload, out: "np.ndarray | None" = None
) -> CompressedField:
    view = _as_view(payload)
    header_bytes = _HEADER_FIELDS * 8
    if view.nbytes < header_bytes:
        raise ConfigurationError(
            f"payload of {view.nbytes} bytes shorter than the "
            f"{header_bytes}-byte header"
        )
    header = np.frombuffer(view[:header_bytes], dtype=np.int64)
    magic, version, n, k, cx, cy, cz, num_cells, prec_code = (
        int(v) for v in header
    )
    if magic != _MAGIC:
        raise ConfigurationError(
            f"bad magic 0x{magic & 0xFFFFFFFFFFFFFFFF:016X} at offset 0 "
            f"(expected 0x{_MAGIC:08X})"
        )
    if version != _VERSION:
        raise ConfigurationError(
            f"unsupported format version {version} at offset 8 "
            f"(expected {_VERSION})"
        )
    if num_cells < 0 or n <= 0:
        raise ConfigurationError(
            f"corrupt header: n={n} (offset 16), num_cells={num_cells} "
            "(offset 56)"
        )
    if prec_code not in _PRECISION_DTYPES:
        raise ConfigurationError(
            f"unknown precision code {prec_code} at offset 64"
        )
    # the grid bounds every count the body's validation computes
    try:
        check_grid_size(n)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{exc} (header n at offset 16)") from None
    if not 0 <= k <= n:
        raise ConfigurationError(
            f"sub-domain size k={k} at offset 24 outside [0, n={n}]"
        )
    for axis, c in enumerate((cx, cy, cz)):
        if not 0 <= c <= n - k:
            raise ConfigurationError(
                f"sub-domain corner {c} at offset {32 + 8 * axis} puts the "
                f"k={k} box outside grid n={n}"
            )
    return _decode_body(
        view,
        header_bytes,
        n,
        k,
        (cx, cy, cz),
        num_cells,
        _PRECISION_DTYPES[prec_code],
        out,
    )


def deserialize_compressed(payload: Payload) -> CompressedField:
    """Decode the wire representation back into a :class:`CompressedField`.

    Accepts any bytes-like payload (``bytes``, ``bytearray``, or a
    ``memoryview`` over a receive arena).  Float64 values *alias* the
    payload buffer — no copy is made, so the buffer must stay alive and
    unmodified for the field's lifetime (receive arenas hand ownership of
    a frame's payload slab to the decoded field for exactly this reason).

    Validates the magic number, version, grid and sub-domain geometry,
    counts, and total length, and checks every cell against the grid and
    the cumulative-count invariant during decoding;
    anything that fails validation raises
    :class:`~repro.errors.ConfigurationError` naming the byte offset of
    the first problem.
    """
    return _deserialize(payload)


def deserialize_into(payload: Payload, out: np.ndarray) -> CompressedField:
    """Decode ``payload`` writing the values into caller-owned storage.

    ``out`` must be a writable, contiguous 1-D float64 array with at
    least as many elements as the payload carries; the returned field's
    ``values`` is ``out[:m]``.  Use this to decode into a preallocated
    receive arena that outlives the transport's frame buffers — the one
    deliberate copy is counted at the ``arena.deserialize_into`` site.
    """
    out = np.asarray(out)
    if out.dtype != np.float64 or out.ndim != 1:
        raise ConfigurationError(
            f"deserialize_into needs a 1-D float64 output array, got "
            f"ndim={out.ndim} dtype={out.dtype}"
        )
    if not out.flags.writeable or not out.flags.c_contiguous:
        raise ConfigurationError(
            "deserialize_into needs a writable C-contiguous output array"
        )
    return _deserialize(payload, out)

