"""Tests for the wire format and the a-priori error bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.local_conv import LocalConvolution
from repro.core.policy import SamplingPolicy
from repro.core.reference import reference_subdomain_convolve
from repro.errors import ConfigurationError
from repro.kernels.gaussian import GaussianKernel
from repro.octree.compress import CompressedField
from repro.octree.error_bounds import (
    hessian_magnitude,
    pipeline_error_bound,
    radial_hessian_envelope,
    trilinear_cell_bound,
)
from repro.octree.interpolate import reconstruct_dense
from repro.octree.sampling import build_adaptive_pattern, build_flat_pattern
from repro.octree.serialize import deserialize_compressed, serialize_compressed
from repro.util.arrays import l2_relative_error


@pytest.fixture
def compressed_field(rng):
    pat = build_flat_pattern(16, 4, (4, 8, 0), r=2)
    dense = rng.standard_normal((16, 16, 16))
    return CompressedField.from_dense(dense, pat)


class TestSerialization:
    def test_roundtrip_values(self, compressed_field):
        payload = serialize_compressed(compressed_field)
        back = deserialize_compressed(payload)
        np.testing.assert_array_equal(back.values, compressed_field.values)

    def test_roundtrip_pattern(self, compressed_field):
        back = deserialize_compressed(serialize_compressed(compressed_field))
        assert back.pattern.n == compressed_field.pattern.n
        assert back.pattern.subdomain_corner == (4, 8, 0)
        assert back.pattern.subdomain_size == 4
        assert back.pattern.geometry_key == compressed_field.pattern.geometry_key

    def test_roundtrip_reconstruction_identical(self, compressed_field):
        back = deserialize_compressed(serialize_compressed(compressed_field))
        np.testing.assert_allclose(
            reconstruct_dense(back),
            reconstruct_dense(compressed_field),
            atol=1e-14,
        )

    def test_bad_magic(self, compressed_field):
        payload = bytearray(serialize_compressed(compressed_field))
        payload[0] ^= 0xFF
        with pytest.raises(ConfigurationError, match="magic"):
            deserialize_compressed(bytes(payload))

    def test_truncated_payload(self, compressed_field):
        payload = serialize_compressed(compressed_field)
        with pytest.raises(ConfigurationError):
            deserialize_compressed(payload[:-16])

    def test_too_short_for_header(self):
        with pytest.raises(ConfigurationError):
            deserialize_compressed(b"abc")

    def test_corrupted_metadata_detected(self, compressed_field):
        payload = bytearray(serialize_compressed(compressed_field))
        # cumulative-count field of the second cell sits at header + 9 int32
        offset = 9 * 8 + 9 * 4
        payload[offset] ^= 0x01
        with pytest.raises(ConfigurationError):
            deserialize_compressed(bytes(payload))

    def test_float32_roundtrip(self, compressed_field):
        payload64 = serialize_compressed(compressed_field)
        payload32 = serialize_compressed(compressed_field, precision="float32")
        assert len(payload32) < len(payload64)
        back = deserialize_compressed(payload32)
        np.testing.assert_allclose(
            back.values, compressed_field.values, rtol=1e-6, atol=1e-6
        )
        assert back.values.dtype == np.float64  # promoted on decode

    def test_float32_payload_half_values(self, compressed_field):
        m = compressed_field.pattern.sample_count
        payload64 = serialize_compressed(compressed_field)
        payload32 = serialize_compressed(compressed_field, precision="float32")
        assert len(payload64) - len(payload32) == 4 * m

    def test_unknown_precision_rejected(self, compressed_field):
        with pytest.raises(ConfigurationError):
            serialize_compressed(compressed_field, precision="float16")

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_roundtrip_property(self, seed):
        r = np.random.default_rng(seed)
        pat = build_adaptive_pattern(
            16, 4, (4, 4, 4), r_near=2, r_mid=4, r_far=4, min_cell=2
        )
        cf = CompressedField.from_dense(r.standard_normal((16, 16, 16)), pat)
        back = deserialize_compressed(serialize_compressed(cf))
        np.testing.assert_array_equal(back.values, cf.values)
        assert back.pattern.geometry_key == cf.pattern.geometry_key


def _legacy_payload(cf):
    """Hand-build the pre-magic headerless wire format."""
    pat = cf.pattern
    header = np.array(
        [
            pat.n,
            pat.subdomain_size,
            pat.subdomain_corner[0],
            pat.subdomain_corner[1],
            pat.subdomain_corner[2],
            pat.num_cells,
        ],
        dtype=np.int64,
    )
    return b"".join(
        [
            header.tobytes(),
            pat.metadata().astype(np.int32).tobytes(),
            pat.cell_sizes().astype(np.int32).tobytes(),
            np.ascontiguousarray(cf.values, dtype=np.float64).tobytes(),
        ]
    )


class TestLegacyFormat:
    """Nothing ever wrote the headerless format; it is not a format."""

    def test_legacy_payload_rejected_with_bad_magic(self, compressed_field):
        with pytest.raises(ConfigurationError, match="bad magic .* at offset 0"):
            deserialize_compressed(_legacy_payload(compressed_field))

    def test_implausible_legacy_geometry_rejected(self, compressed_field):
        # no fallback reads a headerless record's geometry fields: whatever
        # they hold, the payload stops at the magic check
        payload = bytearray(_legacy_payload(compressed_field))
        payload[8:16] = np.int64(999).tobytes()  # k = 999 > n = 16
        with pytest.raises(ConfigurationError, match="bad magic .* at offset 0"):
            deserialize_compressed(bytes(payload))

    def test_legacy_corner_out_of_grid(self, compressed_field):
        payload = bytearray(_legacy_payload(compressed_field))
        payload[16:24] = np.int64(-3).tobytes()  # cx < 0
        with pytest.raises(ConfigurationError, match="bad magic .* at offset 0"):
            deserialize_compressed(bytes(payload))

    def test_garbage_rejected_with_offset_context(self):
        garbage = bytes(range(256)) * 3
        with pytest.raises(ConfigurationError, match="offset 0"):
            deserialize_compressed(garbage)

    def test_version_mismatch_names_offset(self, compressed_field):
        payload = bytearray(serialize_compressed(compressed_field))
        payload[8:16] = np.int64(99).tobytes()  # version field
        with pytest.raises(ConfigurationError, match="version 99 at offset 8"):
            deserialize_compressed(bytes(payload))

    def test_truncated_legacy_body_rejected(self, compressed_field):
        payload = _legacy_payload(compressed_field)
        with pytest.raises(ConfigurationError, match="shorter than the 72-byte header"):
            deserialize_compressed(payload[: 6 * 8 + 4])


_HEADER = 9 * 8


def _record(cf):
    """A mutable copy of ``cf``'s record, its cell count and the byte
    offsets of its metadata rows and of its cell sizes."""
    payload = bytearray(serialize_compressed(cf))
    cells = cf.pattern.num_cells
    return payload, cells, _HEADER, _HEADER + 20 * cells


def _put(payload, offset, value, dtype=np.int32):
    payload[offset : offset + np.dtype(dtype).itemsize] = np.array(value, dtype).tobytes()


class TestGridChecks:
    """A record may only describe cells of its own grid, and a header only
    a sub-domain inside it: each rule names the cell and the byte offset."""

    def test_cell_outside_grid_rejected(self, compressed_field):
        payload, cells, rows, _sizes = _record(compressed_field)
        last = rows + 20 * (cells - 1)
        _put(payload, last, 1000)
        with pytest.raises(ConfigurationError, match=rf"cell {cells - 1} at byte {last} .*grid n=16"):
            deserialize_compressed(bytes(payload))

    def test_corner_off_its_lattice_rejected(self, compressed_field):
        payload, _cells, rows, sizes = _record(compressed_field)
        big = int(np.argmax(compressed_field.pattern.cell_sizes()))
        corner = int(compressed_field.pattern.table[big, 0])
        _put(payload, rows + 20 * big, corner + 1)
        with pytest.raises(ConfigurationError, match=rf"cell {big} at byte {rows + 20 * big} .*lattice"):
            deserialize_compressed(bytes(payload))

    def test_size_not_power_of_two_rejected(self, compressed_field):
        payload, _cells, _rows, sizes = _record(compressed_field)
        _put(payload, sizes, 3)
        with pytest.raises(ConfigurationError, match=rf"cell 0 has edge 3 at byte {sizes}"):
            deserialize_compressed(bytes(payload))

    def test_size_above_grid_rejected(self, compressed_field):
        payload, _cells, _rows, sizes = _record(compressed_field)
        _put(payload, sizes + 4, 32)
        with pytest.raises(ConfigurationError, match=rf"cell 1 has edge 32 at byte {sizes + 4}"):
            deserialize_compressed(bytes(payload))

    def test_overflowing_size_rejected(self, compressed_field):
        """2^22 at rate 1 would wrap ``size^3`` in int64 count arithmetic."""
        payload, _cells, rows, sizes = _record(compressed_field)
        _put(payload, sizes, 1 << 22)
        _put(payload, rows + 12, 1)
        with pytest.raises(ConfigurationError, match=rf"cell 0 has edge {1 << 22} at byte {sizes}"):
            deserialize_compressed(bytes(payload))
        # nor may the header claim a grid whose cells could
        payload, *_ = _record(compressed_field)
        _put(payload, 16, 1 << 22, np.int64)
        with pytest.raises(ConfigurationError, match=r"got 4194304 \(header n at offset 16\)"):
            deserialize_compressed(bytes(payload))

    def test_grid_not_power_of_two_rejected(self, compressed_field):
        payload, *_ = _record(compressed_field)
        _put(payload, 16, 24, np.int64)
        with pytest.raises(ConfigurationError, match=r"got 24 \(header n at offset 16\)"):
            deserialize_compressed(bytes(payload))

    def test_zero_rate_rejected(self, compressed_field):
        payload, _cells, rows, _sizes = _record(compressed_field)
        _put(payload, rows + 20 + 12, 0)
        with pytest.raises(ConfigurationError, match=rf"cell 1 has rate 0 at byte {rows + 32}"):
            deserialize_compressed(bytes(payload))

    def test_header_k_above_n_rejected(self, compressed_field):
        payload, *_ = _record(compressed_field)
        _put(payload, 24, 999, np.int64)
        with pytest.raises(ConfigurationError, match=r"k=999 at offset 24"):
            deserialize_compressed(bytes(payload))

    @pytest.mark.parametrize("axis,corner", [(0, 13), (1, -1), (2, 16)])
    def test_header_box_outside_grid_rejected(self, compressed_field, axis, corner):
        payload, *_ = _record(compressed_field)
        _put(payload, 32 + 8 * axis, corner, np.int64)
        with pytest.raises(ConfigurationError, match=rf"corner {corner} at offset {32 + 8 * axis}"):
            deserialize_compressed(bytes(payload))

    def test_partial_subset_records_still_decode(self):
        """A cell subset's pattern (re-packed cumulative counts, the source's
        sub-domain label) is a valid table: its record passes every grid
        check and decodes to the same bytes."""
        from repro.core.accumulate import cells_touching_rank

        pat = build_adaptive_pattern(32, 8, (8, 16, 0))
        cf = CompressedField(pat, np.arange(pat.sample_count, dtype=np.float64))
        subset = cells_touching_rank(pat, 8, 3, 1)
        assert 0 < subset.num_cells < pat.num_cells
        values = np.concatenate(subset.value_runs(cf.values))
        back = deserialize_compressed(
            serialize_compressed(CompressedField(subset.pattern, values))
        )
        assert back.pattern.geometry_key == subset.pattern.geometry_key
        assert back.pattern.subdomain_corner == pat.subdomain_corner
        assert np.array_equal(back.values, values)


def _per_cell_error_bound(pattern, kernel_spatial, input_l1):
    """``pipeline_error_bound`` as the per-cell loop it replaced."""
    radii, envelope = radial_hessian_envelope(kernel_spatial)
    sub_lo = pattern.subdomain_corner
    sub_hi = [c + pattern.subdomain_size - 1 for c in sub_lo]
    total_sq = 0.0
    for (x, y, z, rate, _start), size in zip(
        pattern.table.tolist(), pattern.cell_sizes().tolist()
    ):
        if rate <= 1:
            continue
        gaps = [
            max(sub_lo[a] - (c + size - 1), c - sub_hi[a], 0)
            for a, c in enumerate((x, y, z))
        ]
        m2 = input_l1 * float(np.interp(float(max(gaps)), radii, envelope))
        bound = trilinear_cell_bound(float(rate), m2)
        total_sq += size**3 * bound * bound
    return float(np.sqrt(total_sq))


class TestErrorBounds:
    @pytest.mark.parametrize(
        "pattern",
        [
            build_adaptive_pattern(32, 8, (8, 8, 16), boundary_width=2),
            build_adaptive_pattern(64, 16, (16, 48, 0), min_cell=2),
            build_flat_pattern(32, 8, (12, 12, 12), r=4),
        ],
        ids=["banded-boundary", "banded-n64", "flat:4"],
    )
    def test_vectorised_bound_matches_per_cell_loop(self, pattern):
        g = GaussianKernel(n=pattern.n, sigma=2.0).spatial()
        got = pipeline_error_bound(pattern, g, input_l1=300.0)
        want = _per_cell_error_bound(pattern, g, input_l1=300.0)
        assert want > 0
        assert abs(got - want) <= 1e-12 * want

    def test_trilinear_bound_formula(self):
        assert trilinear_cell_bound(2.0, 0.5) == pytest.approx(0.375 * 4 * 0.5)

    def test_trilinear_bound_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            trilinear_cell_bound(-1.0, 1.0)

    def test_hessian_of_linear_field_is_zero(self):
        n = 8
        x = np.arange(n, dtype=float)
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        field = 2 * X - Y + 0.5 * Z
        # interior points (periodic wrap pollutes the boundary)
        h = hessian_magnitude(field)
        assert np.max(h[2:-2, 2:-2, 2:-2]) < 1e-10

    def test_hessian_of_quadratic(self):
        n = 16
        x = np.arange(n, dtype=float)
        X, _, _ = np.meshgrid(x, x, x, indexing="ij")
        field = X**2
        h = hessian_magnitude(field)
        # d2/dx2 = 2 everywhere away from the wrap
        assert h[5, 5, 5] == pytest.approx(2.0, abs=1e-10)

    def test_envelope_is_monotone(self):
        g = GaussianKernel(n=32, sigma=2.0).spatial()
        _radii, env = radial_hessian_envelope(g)
        assert (np.diff(env) <= 1e-12).all()

    def test_bound_dominates_measured_error(self):
        """The a-priori bound is an upper bound on the real L2 error."""
        n, k = 32, 8
        kernel = GaussianKernel(n=n, sigma=2.0)
        spec = kernel.spectrum()
        sub = np.ones((k, k, k))
        corner = (12, 12, 12)
        pol = SamplingPolicy.flat_rate(4)
        pattern = pol.pattern_for(n, k, corner)
        lc = LocalConvolution(n, spec, pol, batch=256)
        cf = lc.convolve(sub, corner, pattern=pattern)
        rec = reconstruct_dense(cf)
        exact = reference_subdomain_convolve(sub, corner, spec)
        measured_l2 = float(np.linalg.norm(rec - exact))
        bound = pipeline_error_bound(pattern, kernel.spatial(), input_l1=float(k**3))
        assert measured_l2 <= bound

    def test_bound_shrinks_with_finer_rates(self):
        n, k = 32, 8
        kernel = GaussianKernel(n=n, sigma=2.0).spatial()
        bounds = []
        for r in (2, 4, 8):
            pat = build_flat_pattern(n, k, (12, 12, 12), r=r)
            bounds.append(pipeline_error_bound(pat, kernel, input_l1=512.0))
        assert bounds[0] < bounds[1] < bounds[2]

    def test_dense_pattern_bound_zero(self):
        pat = build_flat_pattern(16, 4, (4, 4, 4), r=1)
        g = GaussianKernel(n=16, sigma=1.0).spatial()
        assert pipeline_error_bound(pat, g, input_l1=10.0) == 0.0

    def test_negative_l1_rejected(self):
        pat = build_flat_pattern(16, 4, (4, 4, 4), r=2)
        g = GaussianKernel(n=16, sigma=1.0).spatial()
        with pytest.raises(ConfigurationError):
            pipeline_error_bound(pat, g, input_l1=-1.0)
