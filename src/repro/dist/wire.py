"""Frame codec: the byte-level message format every transport speaks.

One frame = a fixed 20-byte header followed by the payload::

    offset  size  field
    0       4     magic  b"LCDF"  (LowComm Dist Frame)
    4       1     format version (currently 1)
    5       1     kind   (FrameKind: HELLO / DATA / HEARTBEAT / BYE)
    6       2     source rank (int16, little-endian)
    8       4     tag    (int32 — phase/collective discriminator)
    12      8     payload length (int64)
    20      ...   payload bytes

The header is deliberately tiny and fixed-size so a receiver can always
read exactly 20 bytes, validate, then read exactly ``length`` more —
truncation at any point is detected and reported with the offset reached,
as a typed :class:`~repro.errors.TransportError` (never a silent short
read or a bare ``struct.error``).

Zero-copy data plane: a frame's payload may be ``bytes``, a
``memoryview``, or a :class:`Segments` list of buffer views.
:meth:`Frame.encode_into` packs the header into a caller-owned scratch
buffer and returns ``[header_view, *payload_views]`` — ready for
``socket.sendmsg`` scatter-gather with no concatenation.
:func:`encode_frame` remains the contiguous-``bytes`` encoder (loopback
transport, tests); its join is counted on the
:mod:`repro.util.copytrack` ledger.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Iterable, List, Union

from repro.errors import TransportError
from repro.util import copytrack

#: Frame magic: b"LCDF" — distinct from the octree payload magic so a
#: mis-routed byte stream fails fast at either layer.
FRAME_MAGIC = b"LCDF"
#: Wire format version carried in every frame header.
FRAME_VERSION = 1

_HEADER = struct.Struct("<4sBBhiq")
#: Size of the fixed frame header in bytes.
HEADER_BYTES = _HEADER.size

#: Hard cap on a single frame's payload (guards against parsing garbage
#: lengths into multi-gigabyte reads).
MAX_PAYLOAD_BYTES = 1 << 32


class FrameKind(enum.IntEnum):
    """Frame types understood by every transport."""

    HELLO = 1  #: connection handshake, identifies the source rank
    DATA = 2  #: application payload (collectives, point-to-point)
    HEARTBEAT = 3  #: liveness beacon, consumed by the receive pump
    BYE = 4  #: graceful close — EOF after BYE is not a failure


def _normalize_part(part) -> memoryview:
    """Flat byte ``memoryview`` over one bytes-like segment (no copy)."""
    view = part if isinstance(part, memoryview) else memoryview(part)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    return view


class Segments:
    """A multi-part payload: an ordered list of byte views, never joined.

    The zero-copy counterpart of a ``bytes`` payload: producers (the
    exchange frame codec, :func:`repro.dist.worker.exchange_frame`) emit
    their sections as buffer views and transports write them with
    scatter-gather I/O.
    ``len()`` is the total byte count, matching ``len(payload)`` for
    ``bytes`` payloads everywhere frames are accounted.
    """

    __slots__ = ("parts", "nbytes")

    def __init__(self, parts: Iterable) -> None:
        norm = []
        total = 0
        for part in parts:
            view = _normalize_part(part)
            if view.nbytes:
                norm.append(view)
                total += view.nbytes
        self.parts: tuple = tuple(norm)
        self.nbytes: int = total

    def __len__(self) -> int:
        return self.nbytes

    def tobytes(self) -> bytes:
        """Flatten to one ``bytes`` (counted on the copy ledger)."""
        return copytrack.measured_join(
            self.parts, site=copytrack.SITE_FRAME_JOIN
        )


FramePayload = Union[bytes, bytearray, memoryview, Segments]


@dataclass(frozen=True)
class Frame:
    """One decoded wire message.

    ``payload`` is bytes-like or a :class:`Segments` list; single-buffer
    payloads must be flat byte views so ``len(payload)`` is a byte count.
    """

    kind: FrameKind
    src: int
    tag: int
    payload: FramePayload = b""

    @property
    def nbytes(self) -> int:
        """Actual bytes this frame occupies on the wire (header + payload)."""
        return HEADER_BYTES + len(self.payload)

    def _payload_parts(self) -> List[memoryview]:
        payload = self.payload
        if isinstance(payload, Segments):
            return list(payload.parts)
        if len(payload) == 0:
            return []
        return [_normalize_part(payload)]

    def encode_into(self, header_buf) -> List[memoryview]:
        """Pack the header into ``header_buf`` (>= 20 bytes, writable) and
        return ``[header_view, *payload_views]`` for scatter-gather I/O.

        Nothing is copied except the 20 header bytes; the payload views
        alias the frame's own buffers, so the caller must finish writing
        them before those buffers are mutated or released.
        """
        if not -(1 << 15) <= self.src < (1 << 15):
            raise TransportError(f"source rank {self.src} does not fit int16")
        _HEADER.pack_into(
            header_buf,
            0,
            FRAME_MAGIC,
            FRAME_VERSION,
            int(self.kind),
            self.src,
            self.tag,
            len(self.payload),
        )
        head = _normalize_part(header_buf)[:HEADER_BYTES]
        return [head, *self._payload_parts()]


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to one contiguous ``bytes`` (counted join).

    Transports with scatter-gather sends use :meth:`Frame.encode_into`
    instead and never materialize this concatenation.
    """
    if not -(1 << 15) <= frame.src < (1 << 15):
        raise TransportError(f"source rank {frame.src} does not fit int16")
    header = _HEADER.pack(
        FRAME_MAGIC,
        FRAME_VERSION,
        int(frame.kind),
        frame.src,
        frame.tag,
        len(frame.payload),
    )
    return copytrack.measured_join(
        [header, *frame._payload_parts()], site=copytrack.SITE_FRAME_JOIN
    )


def decode_header(header: bytes) -> tuple:
    """Validate and unpack a frame header; returns ``(kind, src, tag, length)``.

    Raises :class:`~repro.errors.TransportError` on short input, bad magic,
    unsupported version, unknown kind, or an implausible payload length —
    always naming the offending offset/field.
    """
    if len(header) < HEADER_BYTES:
        raise TransportError(
            f"truncated frame header: got {len(header)} of {HEADER_BYTES} bytes"
        )
    magic, version, kind, src, tag, length = _HEADER.unpack(header[:HEADER_BYTES])
    if magic != FRAME_MAGIC:
        raise TransportError(
            f"bad frame magic {magic!r} at offset 0 (expected {FRAME_MAGIC!r})"
        )
    if version != FRAME_VERSION:
        raise TransportError(
            f"unsupported frame version {version} at offset 4 "
            f"(expected {FRAME_VERSION})"
        )
    try:
        kind = FrameKind(kind)
    except ValueError:
        raise TransportError(f"unknown frame kind {kind} at offset 5") from None
    if not 0 <= length <= MAX_PAYLOAD_BYTES:
        raise TransportError(
            f"implausible payload length {length} at offset 12 "
            f"(cap {MAX_PAYLOAD_BYTES})"
        )
    return kind, src, tag, length


def decode_frame(data: bytes) -> Frame:
    """Decode one complete frame from ``data`` (must be exactly one frame).

    The returned frame's payload is a ``memoryview`` aliasing ``data``
    (zero-copy); ``data`` must stay alive and unmodified alongside it.
    """
    kind, src, tag, length = decode_header(data)
    payload = _normalize_part(data)[HEADER_BYTES:]
    if len(payload) != length:
        raise TransportError(
            f"frame payload truncated at offset {HEADER_BYTES + len(payload)}: "
            f"header declares {length} payload bytes, got {len(payload)}"
        )
    return Frame(kind=kind, src=src, tag=tag, payload=payload)
