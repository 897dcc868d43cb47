"""Tests for the pruned staged transforms — the paper's Step 2 machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.fft.pruned import (
    partial_idft,
    pencil_batches,
    half_length,
    pruned_input_fft,
    rslab_from_subcube,
    zstage_batch,
)
from repro.util.arrays import embed_subcube


class TestPrunedInputFFT:
    def test_matches_explicit_padding(self, rng):
        x = rng.standard_normal((3, 4))
        got = pruned_input_fft(x, offset=2, n=8, axis=1)
        padded = np.zeros((3, 8))
        padded[:, 2:6] = x
        np.testing.assert_allclose(got, np.fft.fft(padded, axis=1), atol=1e-9)

    def test_offset_zero(self, rng):
        x = rng.standard_normal((5,))
        got = pruned_input_fft(x, 0, 16, axis=0)
        np.testing.assert_allclose(got, np.fft.fft(x, n=16), atol=1e-9)

    def test_rejects_overflow(self):
        with pytest.raises(ShapeError):
            pruned_input_fft(np.ones(5), offset=4, n=8, axis=0)


class TestSlab:
    def test_slab_equals_padded_2d_transform(self, rng):
        sub = rng.standard_normal((3, 3, 3))
        corner = (1, 2, 0)
        slab = rslab_from_subcube(sub, corner, 8)
        dense = embed_subcube(sub, (8, 8, 3), (1, 2, 0))
        expected = np.fft.fft(np.fft.rfft(dense, axis=0), axis=1)
        np.testing.assert_allclose(slab, expected, atol=1e-9)

    def test_slab_shape(self, rng):
        slab = rslab_from_subcube(rng.standard_normal((4, 4, 4)), (0, 0, 0), 16)
        assert slab.shape == (half_length(16), 16, 4)

    def test_rejects_rank2(self):
        with pytest.raises(ShapeError):
            rslab_from_subcube(np.ones((4, 4)), (0, 0, 0), 8)


class TestPencilBatches:
    def test_covers_range(self):
        slices = list(pencil_batches(10, 3))
        covered = [i for s in slices for i in range(s.start, s.stop)]
        assert covered == list(range(10))

    def test_exact_division(self):
        assert len(list(pencil_batches(8, 4))) == 2

    def test_single_batch(self):
        assert list(pencil_batches(5, 100)) == [slice(0, 5)]


def pruned_fft3(sub, corner, n, batch=None):
    """The ``n//2 + 1`` non-redundant x rows of the ``n^3`` spectrum of
    ``sub`` embedded at ``corner``, composed from the half slab and batched
    z stages the pipeline streams through."""
    k = sub.shape[2]
    rows = half_length(n) * n
    flat = rslab_from_subcube(sub, corner, n).reshape(rows, k)
    out = np.empty((rows, n), dtype=np.complex128)
    for sl in pencil_batches(rows, batch or rows):
        out[sl] = zstage_batch(flat[sl], corner[2], n)
    return out.reshape(half_length(n), n, n)


class TestPrunedFFT3:
    @pytest.mark.parametrize("corner", [(0, 0, 0), (3, 5, 2), (12, 12, 12)])
    def test_matches_dense(self, corner, rng):
        sub = rng.standard_normal((4, 4, 4))
        ref = np.fft.fftn(embed_subcube(sub, (16, 16, 16), corner))[: half_length(16)]
        got = pruned_fft3(sub, corner, 16)
        np.testing.assert_allclose(got, ref, atol=1e-8)

    @pytest.mark.parametrize("batch", [1, 7, 64, 1000])
    def test_batch_invariance(self, batch, rng):
        """The B parameter changes scheduling, never the result."""
        sub = rng.standard_normal((4, 4, 4))
        ref = pruned_fft3(sub, (2, 2, 2), 8, batch=None)
        got = pruned_fft3(sub, (2, 2, 2), 8, batch=batch)
        np.testing.assert_allclose(got, ref, atol=1e-10)


class TestZStage:
    def test_zstage_pads_and_transforms(self, rng):
        rows = rng.standard_normal((5, 3)) + 0j
        got = zstage_batch(rows, corner_z=2, n=8)
        padded = np.zeros((5, 8), dtype=complex)
        padded[:, 2:5] = rows
        np.testing.assert_allclose(got, np.fft.fft(padded, axis=1), atol=1e-9)

    def test_rejects_rank3(self):
        with pytest.raises(ShapeError):
            zstage_batch(np.zeros((2, 2, 2)), 0, 8)


class TestPartialIDFT:
    def test_matches_full_inverse_subset(self, rng):
        spec = np.fft.fft(rng.standard_normal((4, 16)), axis=-1)
        full = np.fft.ifft(spec, axis=-1)
        coords = [0, 5, 11, 15]
        got = partial_idft(spec, coords, axis=-1)
        np.testing.assert_allclose(got, full[:, coords], atol=1e-10)

    def test_all_coords_equals_ifft(self, rng):
        spec = np.fft.fft(rng.standard_normal(8))
        got = partial_idft(spec, list(range(8)))
        np.testing.assert_allclose(got, np.fft.ifft(spec), atol=1e-10)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_any_axis(self, axis, rng):
        spec = np.fft.fftn(rng.standard_normal((4, 5, 6)))
        full = np.fft.ifft(spec, axis=axis)
        coords = [0, spec.shape[axis] - 1]
        got = partial_idft(spec, coords, axis=axis)
        np.testing.assert_allclose(got, np.take(full, coords, axis=axis), atol=1e-10)

    def test_rejects_out_of_range_coords(self):
        with pytest.raises(ShapeError):
            partial_idft(np.zeros(8, dtype=complex), [9])

    @given(
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_any_subset(self, n, seed):
        r = np.random.default_rng(seed)
        spec = np.fft.fft(r.standard_normal(n))
        m = int(r.integers(1, n + 1))
        coords = sorted(r.choice(n, size=m, replace=False).tolist())
        full = np.fft.ifft(spec)
        got = partial_idft(spec, coords)
        np.testing.assert_allclose(got, full[coords], atol=1e-8)
