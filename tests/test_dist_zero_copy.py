"""Unit tests for the zero-copy wire path: Segments, encode_into,
scatter-gather sends, and the receive arena.

These cover the transport-level mechanics the end-to-end dist tests
exercise only implicitly: segment normalization, header scratch reuse,
partial ``sendmsg`` handling (including the IOV cap), and the arena's
slab size classes and recycling.
"""

import numpy as np
import pytest

from repro.dist.tcp import _IOV_CAP, _sendmsg_all
from repro.dist.transport import RecvArena
from repro.dist.wire import (
    HEADER_BYTES,
    Frame,
    FrameKind,
    Segments,
    decode_frame,
    encode_frame,
)
from repro.errors import CommunicationError, TransportError
from repro.util import copytrack


def site_bytes(led, site):
    """Bytes a ``CopyLedger`` counted at one copy site (0 if none)."""
    return led.snapshot()["sites"].get(site, {"bytes": 0})["bytes"]


class TestSegments:
    def test_normalizes_and_drops_empty_parts(self):
        seg = Segments([b"ab", b"", bytearray(b"cd"), memoryview(b"e")])
        assert len(seg) == 5
        assert len(seg.parts) == 3
        assert all(isinstance(p, memoryview) for p in seg.parts)

    def test_accepts_numpy_arrays_as_flat_byte_views(self):
        arr = np.arange(4, dtype=np.int64)
        seg = Segments([arr])
        assert len(seg) == arr.nbytes
        assert seg.parts[0].itemsize == 1

    def test_tobytes_joins_and_counts(self):
        copytrack.reset()
        seg = Segments([b"ab", b"cd"])
        assert seg.tobytes() == b"abcd"
        led = copytrack.ledger()
        assert site_bytes(led, copytrack.SITE_FRAME_JOIN) == 4
        copytrack.reset()

    def test_empty_segments(self):
        seg = Segments([])
        assert len(seg) == 0
        assert seg.parts == ()


class TestEncodeInto:
    def test_matches_contiguous_encoder(self):
        frame = Frame(FrameKind.DATA, 3, 7, b"payload")
        scratch = bytearray(HEADER_BYTES)
        segments = frame.encode_into(scratch)
        assert b"".join(segments) == encode_frame(frame)

    def test_header_lands_in_scratch(self):
        frame = Frame(FrameKind.HEARTBEAT, 1, 0)
        scratch = bytearray(HEADER_BYTES)
        segments = frame.encode_into(scratch)
        assert len(segments) == 1  # empty payload contributes no segment
        assert bytes(scratch) == encode_frame(frame)

    def test_segments_payload_passes_through_unjoined(self):
        payload = Segments([b"abc", b"defg"])
        frame = Frame(FrameKind.DATA, 0, 2, payload)
        segments = frame.encode_into(bytearray(HEADER_BYTES))
        assert len(segments) == 3  # header + both parts, never joined
        decoded = decode_frame(b"".join(segments))
        assert decoded.kind == FrameKind.DATA
        assert decoded.src == 0
        assert decoded.tag == 2
        assert bytes(decoded.payload) == b"abcdefg"

    def test_frame_nbytes_counts_segment_payloads(self):
        frame = Frame(FrameKind.DATA, 0, 0, Segments([b"ab", b"cd"]))
        assert frame.nbytes == HEADER_BYTES + 4

    def test_oversized_src_rejected(self):
        frame = Frame(FrameKind.DATA, 1 << 15, 0, b"")
        with pytest.raises(TransportError, match="int16"):
            frame.encode_into(bytearray(HEADER_BYTES))

    def test_scratch_reuse_across_frames(self):
        scratch = bytearray(HEADER_BYTES)
        first = Frame(FrameKind.DATA, 1, 5, b"xy")
        second = Frame(FrameKind.BYE, 2, 0)
        one = b"".join(first.encode_into(scratch))
        two = b"".join(second.encode_into(scratch))
        assert one == encode_frame(first)
        assert two == encode_frame(second)


class _ChunkySocket:
    """Fake socket whose ``sendmsg`` writes at most ``cap`` bytes per call
    and records how many buffers each call received."""

    def __init__(self, cap: int):
        self.cap = cap
        self.data = bytearray()
        self.iov_lens = []

    def sendmsg(self, buffers):
        self.iov_lens.append(len(buffers))
        written = 0
        for buf in buffers:
            take = min(len(buf), self.cap - written)
            self.data += bytes(buf[:take])
            written += take
            if written == self.cap:
                break
        return written


class TestSendmsgAll:
    def test_partial_sends_reassemble_exactly(self):
        segments = [memoryview(bytes([i]) * 100) for i in range(5)]
        sock = _ChunkySocket(cap=37)  # never a whole segment per call
        _sendmsg_all(sock, segments, 500)
        assert sock.data == b"".join(bytes([i]) * 100 for i in range(5))

    def test_single_byte_trickle(self):
        segments = [memoryview(b"hello"), memoryview(b" world")]
        sock = _ChunkySocket(cap=1)
        _sendmsg_all(sock, segments, 11)
        assert sock.data == b"hello world"

    def test_iov_cap_respected_for_many_segments(self):
        segments = [memoryview(b"x")] * (_IOV_CAP + 200)
        sock = _ChunkySocket(cap=1 << 20)
        _sendmsg_all(sock, segments, _IOV_CAP + 200)
        assert max(sock.iov_lens) <= _IOV_CAP
        assert len(sock.data) == _IOV_CAP + 200

    def test_empty_segments_skipped(self):
        segments = [memoryview(b""), memoryview(b"ab"), memoryview(b"")]
        sock = _ChunkySocket(cap=1 << 20)
        _sendmsg_all(sock, segments, 2)
        assert sock.data == b"ab"
        assert sock.iov_lens == [1]


class TestRecvArena:
    def test_take_returns_exact_window_over_size_class_slab(self):
        arena = RecvArena()
        view = arena.take(100)
        assert len(view) == 100
        assert isinstance(view.obj, bytearray)
        assert len(view.obj) == RecvArena.MIN_SLAB_BYTES

    def test_power_of_two_size_classes(self):
        arena = RecvArena()
        view = arena.take(5000)
        assert len(view.obj) == 8192
        arena.recycle(view)

    def test_recycle_enables_reuse(self):
        arena = RecvArena()
        first = arena.take(6000)
        created = arena.slabs_created
        arena.recycle(first)
        second = arena.take(5000)  # same 8192 size class
        assert arena.slabs_created == created  # no new slab
        assert arena.slabs_reused >= 1
        assert second.obj is first.obj
        arena.recycle(second)

    def test_warm_pool_serves_first_small_take(self):
        arena = RecvArena()
        assert arena.slabs_created == 1  # the warm slab
        arena.take(10)
        assert arena.slabs_created == 1
        assert arena.slabs_reused == 1
        assert arena.allocated_bytes >= RecvArena.MIN_SLAB_BYTES

    def test_take_zero_and_negative(self):
        arena = RecvArena()
        assert len(arena.take(0)) == 0
        with pytest.raises(CommunicationError, match="-1"):
            arena.take(-1)

    def test_recycle_rejects_foreign_buffers(self):
        arena = RecvArena()
        with pytest.raises(CommunicationError, match="recycle"):
            arena.recycle(memoryview(b"immutable"))

    def test_header_view_is_persistent_scratch(self):
        arena = RecvArena()
        view = arena.header_view()
        assert len(view) == HEADER_BYTES
        view[0] = 0x41
        assert arena.header_view()[0] == 0x41  # same backing buffer


class TestDecodeFrameAliasing:
    def test_payload_aliases_input_buffer(self):
        frame = Frame(FrameKind.DATA, 0, 1, b"abcd")
        data = bytearray(encode_frame(frame))
        decoded = decode_frame(data)
        data[HEADER_BYTES] = ord("z")
        assert bytes(decoded.payload) == b"zbcd"  # view, not a copy
