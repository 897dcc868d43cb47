"""Zero-copy codec tests: segments, arena decode, and format edge cases.

The data-plane refactor's codec-level contracts:

- :func:`serialize_segments` emits ``[header, metadata, sizes, values]``
  views that *alias* the field's buffers (joining them reproduces
  :func:`serialize_compressed` exactly);
- float64 encode/decode copies nothing — the
  :mod:`repro.util.copytrack` ledger stays at zero — while float32 does
  exactly one counted cast per direction with no float64 intermediate;
- :func:`deserialize_into` decodes into caller-owned storage with one
  counted copy;
- edge cases decode or fail loudly: empty fields, single cells, ragged
  cell sizes, legacy headerless payloads (rejected: bad magic),
  and truncation at every segment boundary names the right offset.
"""

import struct

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.octree.cell import METADATA_INTS_PER_CELL, pack_table
from repro.octree.compress import CompressedField
from repro.octree.sampling import SamplingPattern, build_flat_pattern
from repro.octree.serialize import (
    deserialize_compressed,
    deserialize_into,
    serialize_compressed,
    serialize_segments,
)
from repro.util import copytrack


def site_bytes(led, site):
    """Bytes a ``CopyLedger`` counted at one copy site (0 if none)."""
    return led.snapshot()["sites"].get(site, {"bytes": 0})["bytes"]


_HEADER_BYTES = 9 * 8


@pytest.fixture(autouse=True)
def _fresh_ledger():
    copytrack.reset()
    yield
    copytrack.reset()


@pytest.fixture
def field(rng):
    pat = build_flat_pattern(16, 4, (4, 8, 0), r=2)
    dense = rng.standard_normal((16, 16, 16))
    return CompressedField.from_dense(dense, pat)


def _make(cells, n=16, k=4):
    """A field over ``(corner, size, rate)`` cells, in the given order."""
    corners, sizes, rates = zip(*cells) if cells else ((), (), ())
    table, sizes = pack_table(corners, sizes, rates)
    pattern = SamplingPattern(
        n=n, table=table, sizes=sizes, subdomain_corner=(0, 0, 0), subdomain_size=k
    )
    values = np.arange(pattern.sample_count, dtype=np.float64) + 0.5
    return CompressedField(pattern=pattern, values=values)


def _section_bounds(field):
    """Byte offsets of the v2 payload's section boundaries."""
    num_cells = field.pattern.num_cells
    meta_end = _HEADER_BYTES + num_cells * METADATA_INTS_PER_CELL * 4
    sizes_end = meta_end + num_cells * 4
    values_end = sizes_end + field.pattern.sample_count * 8
    return meta_end, sizes_end, values_end


class TestSegments:
    def test_join_matches_contiguous_encoder(self, field):
        segments = serialize_segments(field)
        assert len(segments) == 4
        assert b"".join(segments) == serialize_compressed(field)

    def test_values_segment_aliases_field_buffer(self, field):
        segments = serialize_segments(field)
        values_view = np.frombuffer(segments[3], dtype=np.float64)
        assert np.shares_memory(values_view, field.values)

    def test_metadata_segment_aliases_pattern_cache(self, field):
        segments = serialize_segments(field)
        meta_view = np.frombuffer(segments[1], dtype=np.int32)
        assert np.shares_memory(meta_view, field.pattern.metadata())

    def test_float64_encode_copies_nothing(self, field):
        serialize_segments(field)
        assert copytrack.ledger().snapshot()["total_bytes"] == 0

    def test_float32_encode_is_one_counted_cast(self, field):
        serialize_segments(field, precision="float32")
        led = copytrack.ledger()
        m = field.pattern.sample_count
        assert site_bytes(led, copytrack.SITE_ENCODE_CAST) == 4 * m
        assert led.events(copytrack.SITE_ENCODE_CAST) == 1
        # the cast is the only copy — no float64 intermediate exists
        assert led.snapshot()["total_bytes"] == 4 * m

    def test_contiguous_encoder_join_is_counted(self, field):
        payload = serialize_compressed(field)
        led = copytrack.ledger()
        assert site_bytes(led, copytrack.SITE_SERIALIZE_JOIN) == len(payload)

    def test_bad_precision_rejected(self, field):
        with pytest.raises(ConfigurationError, match="precision"):
            serialize_segments(field, precision="float16")


class TestZeroCopyDecode:
    def test_float64_values_alias_the_payload(self, field):
        payload = bytearray(serialize_compressed(field))
        back = deserialize_compressed(payload)
        _meta_end, sizes_end, _values_end = _section_bounds(field)
        struct.pack_into("<d", payload, sizes_end, 1234.5)
        assert back.values[0] == 1234.5  # no copy was made

    def test_float64_decode_copies_nothing(self, field):
        payload = serialize_compressed(field)
        copytrack.reset()
        deserialize_compressed(payload)
        assert copytrack.ledger().snapshot()["total_bytes"] == 0

    def test_float32_decode_is_one_counted_promotion(self, field):
        payload = serialize_compressed(field, precision="float32")
        copytrack.reset()
        back = deserialize_compressed(payload)
        led = copytrack.ledger()
        assert back.values.dtype == np.float64
        assert site_bytes(led, copytrack.SITE_DECODE_CAST) == back.values.nbytes
        assert led.snapshot()["total_bytes"] == back.values.nbytes

    def test_memoryview_payload_accepted(self, field):
        payload = serialize_compressed(field)
        back = deserialize_compressed(memoryview(payload))
        np.testing.assert_array_equal(back.values, field.values)


class TestDeserializeInto:
    def test_decodes_into_caller_storage(self, field):
        payload = serialize_compressed(field)
        m = field.pattern.sample_count
        arena = np.empty(m + 7, dtype=np.float64)
        back = deserialize_into(payload, arena)
        assert np.shares_memory(back.values, arena)
        assert back.values.size == m
        np.testing.assert_array_equal(back.values, field.values)

    def test_copy_is_counted_at_arena_site(self, field):
        payload = serialize_compressed(field)
        copytrack.reset()
        back = deserialize_into(payload, np.empty(field.pattern.sample_count))
        led = copytrack.ledger()
        assert (
            site_bytes(led, copytrack.SITE_DESERIALIZE_INTO)
            == back.values.nbytes
        )

    def test_float32_payload_casts_into_float64_storage(self, field):
        payload = serialize_compressed(field, precision="float32")
        back = deserialize_into(
            payload, np.empty(field.pattern.sample_count, dtype=np.float64)
        )
        np.testing.assert_allclose(back.values, field.values, rtol=1e-6)

    def test_undersized_output_rejected(self, field):
        payload = serialize_compressed(field)
        small = np.empty(field.pattern.sample_count - 1, dtype=np.float64)
        with pytest.raises(ConfigurationError, match="cannot hold"):
            deserialize_into(payload, small)

    def test_wrong_dtype_rejected(self, field):
        payload = serialize_compressed(field)
        out = np.empty(field.pattern.sample_count, dtype=np.float32)
        with pytest.raises(ConfigurationError, match="float64"):
            deserialize_into(payload, out)

    def test_readonly_output_rejected(self, field):
        payload = serialize_compressed(field)
        out = np.empty(field.pattern.sample_count, dtype=np.float64)
        out.setflags(write=False)
        with pytest.raises(ConfigurationError, match="writable"):
            deserialize_into(payload, out)

    def test_non_1d_output_rejected(self, field):
        payload = serialize_compressed(field)
        out = np.empty((4, 4), dtype=np.float64)
        with pytest.raises(ConfigurationError, match="1-D"):
            deserialize_into(payload, out)


class TestEdgeCases:
    def test_empty_field_roundtrips(self):
        field = _make([])
        payload = serialize_compressed(field)
        assert len(payload) == _HEADER_BYTES  # header only
        back = deserialize_compressed(payload)
        assert back.pattern.num_cells == 0
        assert back.values.size == 0

    def test_single_cell_roundtrips(self):
        field = _make([((0, 0, 0), 4, 2)])
        back = deserialize_compressed(serialize_compressed(field))
        assert back.pattern.geometry_key == field.pattern.geometry_key
        np.testing.assert_array_equal(back.values, field.values)

    def test_ragged_cell_sizes_roundtrip(self):
        cells = [
            ((0, 0, 0), 4, 2),
            ((4, 0, 0), 2, 1),
            ((6, 0, 0), 1, 1),
        ]
        field = _make(cells)
        back = deserialize_compressed(serialize_compressed(field))
        assert back.pattern.table[:, :4].tolist() == [[*c, r] for c, _s, r in cells]
        assert back.pattern.cell_sizes().tolist() == [s for _c, s, _r in cells]
        np.testing.assert_array_equal(back.values, field.values)

    def test_legacy_headerless_payload_is_rejected(self, field):
        pattern = field.pattern
        header = np.array(
            [
                pattern.n,
                pattern.subdomain_size,
                *pattern.subdomain_corner,
                pattern.num_cells,
            ],
            dtype=np.int64,
        )
        legacy = (
            header.tobytes()
            + pattern.metadata().tobytes()
            + pattern.cell_sizes().tobytes()
            + np.ascontiguousarray(field.values).tobytes()
        )
        with pytest.raises(ConfigurationError, match="bad magic .* at offset 0"):
            deserialize_compressed(legacy)


class TestTruncationOffsets:
    """Cutting the payload at every segment boundary fails with the
    offset of the section that went missing."""

    def test_mid_header(self, field):
        payload = serialize_compressed(field)
        with pytest.raises(ConfigurationError, match="shorter than"):
            deserialize_compressed(payload[: _HEADER_BYTES // 2])

    def test_header_only_no_metadata(self, field):
        payload = serialize_compressed(field)
        with pytest.raises(
            ConfigurationError, match=rf"offset {_HEADER_BYTES}"
        ):
            deserialize_compressed(payload[:_HEADER_BYTES])

    def test_mid_metadata(self, field):
        payload = serialize_compressed(field)
        meta_end, _sizes_end, _values_end = _section_bounds(field)
        with pytest.raises(
            ConfigurationError, match=rf"offset {_HEADER_BYTES}"
        ):
            deserialize_compressed(payload[: meta_end - 2])

    def test_mid_sizes(self, field):
        payload = serialize_compressed(field)
        meta_end, sizes_end, _values_end = _section_bounds(field)
        with pytest.raises(
            ConfigurationError, match=rf"offset {_HEADER_BYTES}"
        ):
            deserialize_compressed(payload[: sizes_end - 2])

    def test_values_missing_entirely(self, field):
        payload = serialize_compressed(field)
        _meta_end, sizes_end, _values_end = _section_bounds(field)
        with pytest.raises(
            ConfigurationError,
            match=rf"0 values at offset {sizes_end}",
        ):
            deserialize_compressed(payload[:sizes_end])

    def test_mid_value(self, field):
        payload = serialize_compressed(field)
        _meta_end, sizes_end, _values_end = _section_bounds(field)
        with pytest.raises(
            ConfigurationError,
            match=rf"offset {sizes_end}.*not a whole number",
        ):
            deserialize_compressed(payload[:-3])

    def test_one_value_short(self, field):
        payload = serialize_compressed(field)
        m = field.pattern.sample_count
        _meta_end, sizes_end, _values_end = _section_bounds(field)
        with pytest.raises(
            ConfigurationError,
            match=rf"{m - 1} values at offset {sizes_end}.*requires {m}",
        ):
            deserialize_compressed(payload[:-8])

    def test_trailing_garbage_rejected(self, field):
        payload = serialize_compressed(field) + b"\x00" * 8
        with pytest.raises(ConfigurationError, match="requires"):
            deserialize_compressed(payload)


class TestFloat32PrecisionBound:
    def test_relative_error_pinned_near_1e_7(self, field):
        back = deserialize_compressed(
            serialize_compressed(field, precision="float32")
        )
        nonzero = np.abs(field.values) > 1e-12
        rel = np.abs(back.values[nonzero] - field.values[nonzero]) / np.abs(
            field.values[nonzero]
        )
        # float32 round-to-nearest: per-element relative error <= 2^-24,
        # so the observed maximum sits just under ~1.2e-7 and is nonzero
        assert 0 < rel.max() <= 1.2e-7

    def test_l2_relative_error_under_1e_7(self, field):
        back = deserialize_compressed(
            serialize_compressed(field, precision="float32")
        )
        err = np.linalg.norm(back.values - field.values) / np.linalg.norm(
            field.values
        )
        assert 0 < err < 1e-7
