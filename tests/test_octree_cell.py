"""Tests for cell lattices and the 5-int metadata table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.octree.cell import (
    METADATA_INTS_PER_CELL,
    axis_offsets,
    decode_metadata,
    pack_table,
    samples_per_axis,
)
from repro.octree.sampling import SamplingPattern


def _pattern(cells, n=16):
    """A pattern over ``(corner, size, rate)`` cells, in the given order."""
    corners, sizes, rates = zip(*cells)
    table, sizes = pack_table(corners, sizes, rates)
    return SamplingPattern(n=n, table=table, sizes=sizes)


class TestOctreeCell:
    def test_dense_cell_samples_everything(self):
        assert samples_per_axis(4, 1) == 4
        assert _pattern([((0, 0, 0), 4, 1)]).sample_count == 64

    def test_rate_two_with_clamped_edge(self):
        # size 8 rate 2: strides 0,2,4,6 then clamp adds 7
        np.testing.assert_array_equal(axis_offsets(8, 2), [0, 2, 4, 6, 7])
        assert samples_per_axis(8, 2) == 5

    def test_exact_stride_no_clamp(self):
        # size 9 rate 2: 0,2,4,6,8 — 8 is the far face already
        np.testing.assert_array_equal(axis_offsets(9, 2), [0, 2, 4, 6, 8])

    def test_single_point_cell(self):
        pattern = _pattern([((3, 3, 3), 1, 1)])
        assert pattern.sample_count == 1
        np.testing.assert_array_equal(pattern.sample_coords, [[3, 3, 3]])

    def test_rate_equals_size(self):
        np.testing.assert_array_equal(axis_offsets(4, 4), [0, 3])

    def test_coords_absolute(self):
        coords = _pattern([((10, 20, 30), 2, 1)], n=32).sample_coords
        assert coords[:, 0].min() == 10
        assert coords[:, 1].min() == 20
        assert coords[:, 2].min() == 30

    def test_contains(self):
        """A cell's lattice stays inside the cell."""
        coords = _pattern([((4, 4, 4), 4, 3)]).sample_coords
        assert ((coords >= 4) & (coords < 8)).all()
        assert {7} <= set(coords[:, 0].tolist())

    def test_rejects_bad_params(self):
        # (metadata index, size) of: a zero edge, a zero rate, a negative corner
        for field, size in [(None, 0), (3, 4), (0, 4)]:
            table, _sizes = pack_table([(0, 0, 0)], [4], [1])
            meta = table.reshape(-1).copy()
            if field is not None:
                meta[field] = -4 if field == 0 else 0
            with pytest.raises(ConfigurationError):
                decode_metadata(meta, [size], n=16)

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_sample_count_matches_coords(self, size, rate):
        offsets = axis_offsets(size, rate)
        assert samples_per_axis(size, rate) == len(offsets)
        assert offsets.dtype == np.intp
        # far face always covered
        assert offsets[-1] == size - 1


class TestMetadataCodec:
    CELLS = [((0, 0, 0), 4, 1), ((4, 0, 0), 4, 2), ((0, 8, 0), 8, 4)]

    def _table(self):
        corners, sizes, rates = zip(*self.CELLS)
        return pack_table(corners, sizes, rates)

    def test_layout_five_ints(self):
        table, sizes = self._table()
        assert table.dtype == np.int32 and sizes.dtype == np.int32
        assert table.shape == (3, METADATA_INTS_PER_CELL)

    def test_cumulative_counts(self):
        table, sizes = self._table()
        counts = samples_per_axis(sizes, table[:, 3]) ** 3
        assert table[0, 4] == 0
        assert table[1, 4] == counts[0]
        assert table[2, 4] == counts[0] + counts[1]

    def test_roundtrip(self):
        table, sizes = self._table()
        decoded, decoded_sizes = decode_metadata(table.reshape(-1), sizes, n=16)
        assert np.array_equal(decoded, table) and np.array_equal(decoded_sizes, sizes)
        assert not decoded.flags.writeable and not decoded_sizes.flags.writeable
        assert np.shares_memory(decoded, table)

    def test_corrupted_cumulative_detected(self):
        table, sizes = self._table()
        meta = table.reshape(-1).copy()
        meta[9] += 1
        with pytest.raises(ConfigurationError, match="cumulative.*cell 1.* byte 36"):
            decode_metadata(meta, sizes, n=16)

    def test_wrong_length_detected(self):
        with pytest.raises(ConfigurationError):
            decode_metadata(np.zeros(7, dtype=np.int32), [1], n=16)

    def test_size_count_mismatch(self):
        table, _sizes = self._table()
        with pytest.raises(ConfigurationError):
            decode_metadata(table.reshape(-1), [4, 4], n=16)

    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=0, max_value=127),
            st.integers(min_value=1, max_value=16),
        ),
        min_size=1,
        max_size=20,
    ))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, specs):
        """Any cells on their own lattice inside the grid decode as packed."""
        n = 128
        sizes = [1 << e for e, _c, _r in specs]
        corners = [((c * s) % n,) * 3 for (_e, c, _r), s in zip(specs, sizes)]
        table, sizes = pack_table(corners, sizes, [r for _e, _c, r in specs])
        decoded, decoded_sizes = decode_metadata(table.reshape(-1), sizes, n=n)
        assert decoded.tobytes() == table.tobytes()
        assert decoded_sizes.tobytes() == sizes.tobytes()
