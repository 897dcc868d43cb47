"""Frame codec tests: every truncation/corruption is a typed error."""

import numpy as np
import pytest

from repro.dist.wire import (
    FRAME_MAGIC,
    FRAME_VERSION,
    HEADER_BYTES,
    Frame,
    FrameKind,
    decode_frame,
    decode_header,
    encode_frame,
)
from repro.errors import TransportError


class TestRoundtrip:
    @pytest.mark.parametrize("kind", list(FrameKind))
    def test_all_kinds(self, kind):
        frame = Frame(kind, src=3, tag=17, payload=b"hello")
        back = decode_frame(encode_frame(frame))
        assert back == frame

    def test_empty_payload(self):
        frame = Frame(FrameKind.HEARTBEAT, src=0, tag=0)
        data = encode_frame(frame)
        assert len(data) == HEADER_BYTES
        assert decode_frame(data) == frame

    def test_large_payload(self, rng):
        payload = rng.integers(0, 256, size=100_000, dtype=np.uint8).tobytes()
        frame = Frame(FrameKind.DATA, src=7, tag=-2, payload=payload)
        back = decode_frame(encode_frame(frame))
        assert back.payload == payload
        assert back.tag == -2

    def test_nbytes_is_wire_size(self):
        frame = Frame(FrameKind.DATA, src=1, tag=2, payload=b"xyz")
        assert frame.nbytes == len(encode_frame(frame)) == HEADER_BYTES + 3

    def test_header_layout(self):
        data = encode_frame(Frame(FrameKind.DATA, src=1, tag=2, payload=b"p"))
        assert data[:4] == FRAME_MAGIC
        assert data[4] == FRAME_VERSION
        assert data[5] == int(FrameKind.DATA)


class TestRejection:
    def test_short_header(self):
        with pytest.raises(TransportError, match="truncated frame header"):
            decode_header(FRAME_MAGIC)

    def test_bad_magic_offset_zero(self):
        data = bytearray(encode_frame(Frame(FrameKind.DATA, 0, 0, b"x")))
        data[0] ^= 0xFF
        with pytest.raises(TransportError, match="offset 0"):
            decode_header(bytes(data))

    def test_bad_version_offset(self):
        data = bytearray(encode_frame(Frame(FrameKind.DATA, 0, 0, b"x")))
        data[4] = 99
        with pytest.raises(TransportError, match="version 99 at offset 4"):
            decode_header(bytes(data))

    def test_unknown_kind(self):
        data = bytearray(encode_frame(Frame(FrameKind.DATA, 0, 0, b"x")))
        data[5] = 200
        with pytest.raises(TransportError, match="kind 200 at offset 5"):
            decode_header(bytes(data))

    def test_negative_length(self):
        data = bytearray(encode_frame(Frame(FrameKind.DATA, 0, 0)))
        data[12:20] = (-1).to_bytes(8, "little", signed=True)
        with pytest.raises(TransportError, match="length -1 at offset 12"):
            decode_header(bytes(data))

    def test_truncated_payload(self):
        data = encode_frame(Frame(FrameKind.DATA, 0, 0, b"0123456789"))
        with pytest.raises(TransportError, match="truncated at offset"):
            decode_frame(data[:-4])

    def test_src_int16_bounds(self):
        with pytest.raises(TransportError, match="int16"):
            encode_frame(Frame(FrameKind.DATA, src=1 << 16, tag=0))
