"""Tests for the local pruned compressed convolution — the pipeline's heart."""

import sys
import threading

import numpy as np
import pytest

from repro.cluster.memory import MemoryTracker
from repro.core.local_conv import LocalConvolution, PencilOperator
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy, parse_policy
from repro.core.reference import reference_convolve, reference_subdomain_convolve
from repro.errors import ConfigurationError, DeviceMemoryError, ShapeError
from repro.fft import pruned_plan
from repro.fft.pruned import (
    PENCIL_BATCH_BYTES,
    default_pencil_batch,
    half_length,
    pencil_batches,
)
from repro.fft.pruned_plan import plan_for
from repro.kernels.gaussian import GaussianKernel
from repro.octree.compress import CompressedField
from repro.octree.interpolate import reconstruct_dense
from repro.octree.sampling import build_box_pattern
from repro.octree.serialize import deserialize_compressed, serialize_compressed
from repro.util.arrays import embed_subcube, l2_relative_error


@pytest.fixture
def setup16(rng):
    n, k = 16, 4
    spec = GaussianKernel(n=n, sigma=1.2).spectrum()
    sub = rng.standard_normal((k, k, k))
    return n, k, spec, sub


class TestDenseDebugPath:
    """The uncompressed staged path must be *exact* (machine precision)."""

    @pytest.mark.parametrize("corner", [(0, 0, 0), (4, 8, 12), (12, 12, 12)])
    def test_matches_reference(self, setup16, corner):
        n, k, spec, sub = setup16
        lc = LocalConvolution(n, spec, SamplingPolicy(), batch=16)
        got = lc.convolve_dense_debug(sub, corner)
        ref = reference_subdomain_convolve(sub, corner, spec)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    #: (policy, n, k, corner, inverse strategy, B values), B = None the
    #: default: a GEMM and an FFT inverse-strategy shape
    BATCH_SHAPES = [
        ("flat:2", 64, 16, (16, 32, 16), "fft", (1, 64, None, 2112)),
        ("banded", 32, 8, (8, 0, 24), "gemm", (2, 32, None, 544)),
    ]

    def test_batch_invariance(self, setup16, rng):
        """B only schedules work: bitwise the same results from 2 pencils
        to the whole slab, for a dense kernel, a component stack and a
        pencil operator.  A one-pencil batch turns the z-stage GEMM into a
        matrix-vector product, whose rounding may differ in the last ulp,
        so it is bitwise only on the FFT shape."""
        n, k, spec, sub = setup16
        outs = []
        for batch in (1, 7, n, None, 256):
            lc = LocalConvolution(n, spec, SamplingPolicy(), batch=batch)
            outs.append(lc.convolve_dense_debug(sub, (4, 4, 4)))
        np.testing.assert_allclose(outs[0], outs[2], atol=1e-12)
        for out in outs[1:]:
            assert np.array_equal(out, outs[2])

        for policy, n, k, corner, form, batches in self.BATCH_SHAPES:
            spectrum = GaussianKernel(n=n, sigma=2.0).spectrum()

            def multiply(spec, ix, iy):
                spec *= spectrum[ix, iy, :]
                return spec

            for kind in ("array", "stack", "operator"):
                kernel = PencilOperator(multiply) if kind == "operator" else spectrum
                block = rng.standard_normal((3, k, k, k) if kind == "stack" else (k, k, k))
                results = []
                for batch in batches:
                    lc = LocalConvolution(n, kernel, parse_policy(policy), batch=batch)
                    got = lc.convolve(block, corner)
                    fields = got if kind == "stack" else [got]
                    results.append([field.values for field in fields])
                sets = [fields[0].pattern.axis_coordinate_set(axis) for axis in range(3)]
                assert plan_for(n, *sets).strategy == (form, form)
                for values in results[1:]:
                    for a, b in zip(values, results[0]):
                        assert np.array_equal(a, b), (policy, kind)


class TestCompressedPath:
    def test_samples_exact(self, setup16):
        """Compression is sampling: retained values equal the exact result."""
        n, k, spec, sub = setup16
        lc = LocalConvolution(n, spec, SamplingPolicy.flat_rate(2), batch=32)
        cf = lc.convolve(sub, (4, 4, 4))
        exact = reference_subdomain_convolve(sub, (4, 4, 4), spec)
        coords = cf.pattern.sample_coords
        np.testing.assert_allclose(
            cf.values, exact[coords[:, 0], coords[:, 1], coords[:, 2]], atol=1e-10
        )

    def test_lossless_when_r1(self, setup16):
        n, k, spec, sub = setup16
        lc = LocalConvolution(n, spec, SamplingPolicy.flat_rate(1), batch=32)
        cf = lc.convolve(sub, (8, 4, 0))
        rec = reconstruct_dense(cf)
        ref = reference_subdomain_convolve(sub, (8, 4, 0), spec)
        np.testing.assert_allclose(rec, ref, atol=1e-10)

    def test_error_within_band_for_smooth_input(self):
        n, k = 64, 16
        spec = GaussianKernel(n=n, sigma=2.0).spectrum()
        sub = np.ones((k, k, k))
        pol = SamplingPolicy(r_near=2, r_mid=8, r_far=16, min_cell=2)
        lc = LocalConvolution(n, spec, pol, batch=512)
        cf = lc.convolve(sub, (24, 24, 24))
        rec = reconstruct_dense(cf)
        ref = reference_subdomain_convolve(sub, (24, 24, 24), spec)
        assert l2_relative_error(rec, ref) < 0.03  # the paper's band

    def test_on_the_fly_kernel_callable(self, setup16):
        """A kernel evaluated pencil by pencil is an operator multiplying
        by the pencils it looks up."""
        n, k, spec, sub = setup16

        def pencils(batch, ix, iy):
            batch *= spec[ix, iy, :]
            return batch

        lc_arr = LocalConvolution(n, spec, SamplingPolicy.flat_rate(2), batch=16)
        lc_fn = LocalConvolution(
            n, PencilOperator(pencils), SamplingPolicy.flat_rate(2), batch=16
        )
        cf1 = lc_arr.convolve(sub, (4, 4, 4))
        cf2 = lc_fn.convolve(sub, (4, 4, 4))
        np.testing.assert_allclose(cf1.values, cf2.values, atol=1e-12)

    def test_linearity(self, setup16, rng):
        """The compressed convolution operator is linear."""
        n, k, spec, _ = setup16
        lc = LocalConvolution(n, spec, SamplingPolicy.flat_rate(2), batch=32)
        a = rng.standard_normal((k, k, k))
        b = rng.standard_normal((k, k, k))
        ca = lc.convolve(a, (4, 4, 4)).values
        cb = lc.convolve(b, (4, 4, 4)).values
        cab = lc.convolve(2 * a - 3 * b, (4, 4, 4)).values
        np.testing.assert_allclose(cab, 2 * ca - 3 * cb, atol=1e-9)


class TestValidation:
    def test_wrong_kernel_shape(self):
        with pytest.raises(ShapeError):
            LocalConvolution(16, np.zeros((8, 8, 8)), SamplingPolicy())

    def test_non_cubic_needs_explicit_pattern(self, setup16):
        """Rectangular blocks are supported, but only with a caller-supplied
        box pattern (the cubic policy bands do not apply)."""
        n, k, spec, _ = setup16
        lc = LocalConvolution(n, spec, SamplingPolicy())
        with pytest.raises(ConfigurationError, match="rectangular"):
            lc.convolve(np.zeros((4, 4, 5)), (0, 0, 0))

    def test_subdomain_outside_grid(self, setup16):
        n, k, spec, sub = setup16
        lc = LocalConvolution(n, spec, SamplingPolicy())
        with pytest.raises(ShapeError):
            lc.convolve(sub, (14, 0, 0))

    @pytest.mark.parametrize("batch", [0, -1])
    def test_non_positive_batch_rejected(self, setup16, batch):
        """0 is not "unset": it is refused like every non-positive batch."""
        n, k, spec, _ = setup16
        with pytest.raises(ConfigurationError, match="batch"):
            LocalConvolution(n, spec, SamplingPolicy(), batch=batch)
        # None leaves B to default_pencil_batch, per call
        assert LocalConvolution(n, spec, SamplingPolicy(), batch=None).batch is None


class TestDefaultBatch:
    """``batch=None`` is B = clamp(budget // (16 n C), n, half slab): a
    pure function of the grid and the stacked components."""

    @pytest.mark.parametrize(
        "n,comps,expected",
        [(16, 1, 144), (32, 1, 512), (64, 1, 256), (128, 1, 128),
         (256, 1, 256), (32, 6, 85), (64, 6, 64)],
    )
    def test_rule(self, n, comps, expected):
        fit = PENCIL_BATCH_BYTES // (16 * n * comps)
        assert default_pencil_batch(n, comps) == expected
        assert expected == max(n, min(fit, half_length(n) * n))

    def test_default_is_a_pure_function_of_n_and_components(self, monkeypatch):
        """Serial, rank and serve pipelines and the MASSIF solver all leave
        B unset, so each runs exactly the batches the rule gives for its
        ``(n, C)``: what keeps every mode bitwise to ``run_serial``."""
        from repro.dist.worker import DistConfig, build_pipeline
        from repro.massif.elasticity import StiffnessField, isotropic_stiffness
        from repro.massif.lowcomm_solver import LowCommMassifSolver
        from repro.massif.microstructure import sphere_inclusion
        from repro.kernels.green_massif import LameParameters
        from repro.serve.executor import BatchExecutor
        from repro.serve.server import ServerConfig
        from repro.util.clock import ManualClock

        n, k = 32, 8
        spec = GaussianKernel(n=n, sigma=2.0).spectrum()
        policy = parse_policy("flat:2")
        phases = [
            isotropic_stiffness(LameParameters.from_young_poisson(young, 0.3))
            for young in (1.0, 5.0)
        ]
        executor = BatchExecutor({"g": spec}, ManualClock())
        locals_ = {
            "serial": LowCommConvolution3D(n, k, spec, policy).local,
            "rank": build_pipeline(DistConfig(n=n, k=k, policy="flat:2")).local,
            "serve": executor.engine_for(
                (n, k, "g", policy, ServerConfig(n=n, k=k).batch)
            ).local,
            "massif": LowCommMassifSolver(
                StiffnessField(sphere_inclusion(n, radius=5), phases), k=k
            ).pipeline.local,
        }
        seen = []
        zstage = pruned_plan.PrunedPlan.zstage

        def recording(plan, rows, corner_z, scratch=None):
            seen.append(rows.shape[0])
            return zstage(plan, rows, corner_z, scratch)

        monkeypatch.setattr(pruned_plan.PrunedPlan, "zstage", recording)
        pencils = half_length(n) * n
        for door, local in locals_.items():
            assert local.batch is None, door
            # the Gamma operator takes exactly the six symmetric components
            for comps in (6,) if door == "massif" else (1, 6):
                batch = default_pencil_batch(n, comps)
                expected = [comps * len(range(start, min(start + batch, pencils)))
                            for start in range(0, pencils, batch)]
                seen.clear()
                local.convolve(np.ones((comps, k, k, k)), (8, 16, 8))
                assert seen == expected, (door, comps)


class TestSharedPlans:
    def test_two_convolutions_in_two_threads_match_one_thread(self, rng):
        """Two convolutions of one shape run the same cached plans at once;
        each pads in its own scratch, so neither sees the other's data."""
        n, k = 32, 8
        spec = GaussianKernel(n=n, sigma=2.0).spectrum()
        policy = SamplingPolicy.flat_rate(2)
        corners = [(0, 8, 16), (8, 0, 24), (16, 16, 0), (24, 8, 8)]
        blocks = [
            [rng.standard_normal((k, k, k)) for _ in corners] for _ in range(2)
        ]
        solo = LocalConvolution(n, spec, policy, batch=64)
        expected = [
            [solo.convolve(sub, c).values for sub, c in zip(subs, corners)]
            for subs in blocks
        ]
        misses = pruned_plan.PLANS.misses
        convs = [LocalConvolution(n, spec, policy, batch=64) for _ in blocks]
        barrier = threading.Barrier(2)
        mismatches = [0, 0]

        def run(slot):
            barrier.wait()
            for _ in range(20):
                for sub, c, want in zip(blocks[slot], corners, expected[slot]):
                    got = convs[slot].convolve(sub, c).values
                    mismatches[slot] += not np.array_equal(got, want)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == [0, 0]
        assert pruned_plan.PLANS.misses == misses  # every plan was shared


class TestMemoryCharging:
    def test_allocations_charged_and_released(self, setup16):
        n, k, spec, sub = setup16
        mt = MemoryTracker()
        lc = LocalConvolution(
            n, spec, SamplingPolicy.flat_rate(2), batch=16, memory=mt
        )
        lc.convolve(sub, (4, 4, 4))
        assert mt.current_bytes == 0
        assert mt.peak_bytes >= 16 * n * n * k  # at least the slab

    def test_oom_propagates(self, setup16):
        n, k, spec, sub = setup16
        mt = MemoryTracker(capacity_bytes=1024)  # far too small
        lc = LocalConvolution(
            n, spec, SamplingPolicy.flat_rate(2), batch=16, memory=mt
        )
        with pytest.raises(DeviceMemoryError):
            lc.convolve(sub, (4, 4, 4))
        assert mt.current_bytes == 0  # everything released on unwind

    @staticmethod
    def _tracked(n, k, corner, batch):
        spec = GaussianKernel(n=n, sigma=2.0).spectrum()
        mt = MemoryTracker()
        lc = LocalConvolution(
            n, spec, SamplingPolicy.flat_rate(2), batch=batch, memory=mt
        )
        cf = lc.convolve(np.ones((k, k, k)), corner)
        sets = [cf.pattern.axis_coordinate_set(axis) for axis in range(3)]
        m = len(sets[0])
        assert all(len(retained) == m for retained in sets)
        plan = plan_for(n, *sets)  # a hit: the plan it ran
        assert pruned_plan.PLANS.misses == 1 and mt.current_bytes == 0
        return mt, m, plan.strategy

    def test_gemm_shape_peak_unchanged(self):
        """n=32 / flat:2 stays on the GEMM, and the real GEMM stacks its
        operand in the spent z buffer, not a new one.  At B = n the tracked
        peak is still slab + z + y + x (477 952 B before the strategies
        existed); at the default B = 512 the z loop's pad buffer and
        spectrum (2 x 256 KiB) decide it: 785 408 B."""
        n, k = 32, 8
        for batch, expected in ((n, 477952), (None, 785408)):
            mt, m, strategy = self._tracked(n, k, (8, 16, 8), batch=batch)
            assert strategy == ("gemm", "gemm") and m == 22
            rows = n // 2 + 1
            slab, zred = 16 * rows * n * k, 16 * rows * n * m
            stages = slab + zred + 16 * rows * m * m + 8 * m**3
            pencils = 2 * 16 * (batch or default_pencil_batch(n)) * n
            assert mt.peak_bytes == max(stages, slab + zred + pencils) == expected
            charged = {name: nbytes for op, name, nbytes in mt.events if op == "alloc"}
            assert charged["pencil_batch"] == pencils
            assert charged["z_full_batch"] == charged["y_full_plane"] == 0

    @pytest.mark.parametrize("batch", [64, 1024])
    def test_fft_shape_peak_is_the_hand_computed_sum(self, batch):
        """n=64 / flat:2 (m = 42) runs z and y as inverse FFT + take: one
        more full-length (B, n) buffer per z batch, one (n, m) plane in the
        y stage, both on the ledger."""
        n, k = 64, 16
        mt, m, strategy = self._tracked(n, k, (16, 32, 16), batch=batch)
        assert m == 42 and strategy == ("fft", "fft")
        rows = n // 2 + 1
        slab, zred = 16 * rows * n * k, 16 * rows * n * m
        yred, box = 16 * rows * m * m, 8 * m**3
        z_loop = slab + zred + 2 * 16 * batch * n + 16 * batch * n
        y_stage = slab + zred + yred + 16 * n * m
        x_stage = slab + zred + yred + box
        assert mt.peak_bytes == max(z_loop, y_stage, x_stage)
        # the large batch is where the new z temporary decides the peak
        assert (mt.peak_bytes == z_loop) == (batch == 1024)
        charged = {name: nbytes for op, name, nbytes in mt.events if op == "alloc"}
        assert charged["z_full_batch"] == 16 * batch * n
        assert charged["y_full_plane"] == 16 * n * m


def _searchsorted_gather_index(pattern):
    """The per-solve computation the cached index replaced."""
    xs, ys, zs = (pattern.axis_coordinate_set(axis) for axis in range(3))
    sc = pattern.sample_coords
    ax = np.searchsorted(xs, sc[:, 0])
    ay = np.searchsorted(ys, sc[:, 1])
    az = np.searchsorted(zs, sc[:, 2])
    return (ax * len(ys) + ay) * len(zs) + az


class TestBoxGatherIndex:
    PATTERNS = {
        "banded": lambda: SamplingPolicy().pattern_for(32, 8, (8, 16, 0)),
        "banded-min-cell": lambda: SamplingPolicy(min_cell=2).pattern_for(
            64, 16, (48, 0, 16)
        ),
        "flat:1": lambda: SamplingPolicy.flat_rate(1).pattern_for(16, 4, (4, 4, 4)),
        "flat:2": lambda: SamplingPolicy.flat_rate(2).pattern_for(32, 8, (24, 8, 0)),
        "flat:4": lambda: SamplingPolicy.flat_rate(4).pattern_for(32, 8, (0, 0, 0)),
        # the shapes of tests/test_irregular_partitions.py
        "box": lambda: build_box_pattern(32, (8, 16, 4), (4, 8, 12), min_cell=1),
        "box-lossy": lambda: build_box_pattern(
            32, (8, 16, 4), (4, 8, 12), r_near=2, r_mid=4, r_far=8
        ),
    }

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_matches_searchsorted_oracle(self, name):
        pattern = self.PATTERNS[name]()
        index = pattern.box_gather_index
        np.testing.assert_array_equal(index, _searchsorted_gather_index(pattern))
        box_size = np.prod([len(pattern.axis_coordinate_set(a)) for a in range(3)])
        # narrowest unsigned dtype that addresses the box; shared, so frozen
        assert index.dtype == np.min_scalar_type(int(box_size) - 1)
        assert not index.flags.writeable
        assert pattern.box_gather_index is index

    def test_rectangular_axis_sets_differ(self):
        """The rectangular case is the one where a transposed box layout
        would show: its three axis sets have different lengths."""
        pattern = self.PATTERNS["box-lossy"]()
        assert len({len(pattern.axis_coordinate_set(a)) for a in range(3)}) > 1

    @pytest.mark.parametrize("name", ["banded", "flat:2"])
    def test_decoded_pattern_yields_the_same_index(self, name, rng):
        pattern = self.PATTERNS[name]()
        cf = CompressedField(
            pattern=pattern, values=rng.standard_normal(pattern.sample_count)
        )
        blob = serialize_compressed(cf)
        decoded = deserialize_compressed(blob).pattern
        assert decoded is not pattern
        np.testing.assert_array_equal(
            decoded.box_gather_index, pattern.box_gather_index
        )
        # a second decode is served the interned pattern, index and all
        again = deserialize_compressed(blob).pattern
        assert again is decoded
        assert again.box_gather_index is decoded.box_gather_index

    def test_convolve_gathers_through_the_index(self, setup16):
        """End to end on a rectangular box: the gathered values are the
        exact result at the sample coordinates."""
        n, _k, spec, _sub = setup16
        shape, corner = (4, 8, 2), (2, 4, 6)
        pattern = build_box_pattern(n, shape, corner, r_near=2, r_mid=2, r_far=4)
        sub = np.arange(np.prod(shape), dtype=float).reshape(shape)
        lc = LocalConvolution(n, spec, SamplingPolicy(), batch=32)
        cf = lc.convolve(sub, corner, pattern=pattern)
        exact = reference_convolve(embed_subcube(sub, (n,) * 3, corner), spec)
        sc = pattern.sample_coords
        np.testing.assert_allclose(
            cf.values, exact[sc[:, 0], sc[:, 1], sc[:, 2]], atol=1e-10
        )


def _single_component_oracle(lc, spectrum, sub, corner):
    """``LocalConvolution.convolve`` as it was before the component axis,
    numpy call for numpy call, driven through the plan the convolution
    itself uses: the scalar path's reference."""
    n = lc.n
    pattern = lc.policy.pattern_for(n, sub.shape[0], corner)
    sets = [pattern.axis_coordinate_set(axis) for axis in range(3)]
    plan = plan_for(n, *sets)
    kernel = spectrum.reshape(n * n, n)
    k = sub.shape[2]
    flat = plan.forward_slab(sub, corner).reshape(plan.num_pencils, k)
    zred = np.empty((plan.num_pencils, plan.mz), dtype=np.complex128)
    for sl in pencil_batches(plan.num_pencils, lc.batch):
        spec = plan.zstage(flat[sl], corner[2])
        spec *= kernel[sl]
        plan.idft_z(spec, out=zred[sl])
    yred = plan.idft_y(zred.reshape(plan.slab_rows, n, plan.mz))
    box = plan.idft_x(yred, work=zred)
    return plan, np.real(np.take(box.reshape(-1), pattern.box_gather_index))


class TestComponentAxis:
    """The transform is tensor-valued; one component is the old scalar
    path bit for bit, and a stack is its components side by side."""

    #: policy x (GEMM-, FFT-strategy shape)
    SHAPES = [
        ("flat:2", 32, 8, (8, 16, 8), "gemm"),
        ("flat:2", 64, 16, (16, 32, 16), "fft"),
        ("banded", 32, 8, (8, 0, 24), "gemm"),
        ("banded", 64, 32, (0, 32, 0), "fft"),
    ]

    @staticmethod
    def _conv(policy, n, **kwargs):
        spectrum = GaussianKernel(n=n, sigma=2.0).spectrum()
        lc = LocalConvolution(n, spectrum, parse_policy(policy), **kwargs)
        return lc, spectrum

    @pytest.mark.parametrize("policy,n,k,corner,form", SHAPES)
    def test_scalar_path_unchanged(self, policy, n, k, corner, form, rng):
        sub = rng.standard_normal((k, k, k))
        mt = MemoryTracker()
        lc, spectrum = self._conv(policy, n, batch=48, memory=mt)
        got = lc.convolve(sub, corner)
        peak = mt.peak_bytes
        plan, expected = _single_component_oracle(lc, spectrum, sub, corner)
        assert plan.strategy == (form, form)
        assert got.values.dtype == expected.dtype
        assert np.array_equal(got.values, expected)
        # and the half-spectrum path is the exact convolution at the samples
        exact = reference_subdomain_convolve(sub, corner, spectrum)
        sc = got.pattern.sample_coords
        scale = float(np.max(np.abs(exact)))
        np.testing.assert_allclose(
            got.values, exact[sc[:, 0], sc[:, 1], sc[:, 2]], rtol=1e-10, atol=1e-10 * scale
        )
        # the same block as a stack of one: same bytes, same tracked peak
        (stacked,) = lc.convolve(sub[None], corner)
        assert np.array_equal(stacked.values, expected)
        assert mt.peak_bytes == peak and mt.current_bytes == 0

    @pytest.mark.parametrize("policy,n,k,corner,form", SHAPES[:2])
    def test_stack_equals_separate_calls_bitwise(
        self, policy, n, k, corner, form, rng
    ):
        """Every stage keeps the per-component GEMM / FFT shapes, so a
        shared scalar kernel over C components is C one-component calls."""
        subs = rng.standard_normal((3, k, k, k))
        lc, _spectrum = self._conv(policy, n, batch=40)
        stacked = lc.convolve(subs, corner)
        assert len(stacked) == 3
        for sub, field in zip(subs, stacked):
            assert np.array_equal(field.values, lc.convolve(sub, corner).values)
            assert field.pattern is stacked[0].pattern
        dense = lc.convolve_dense_debug(subs, corner)
        assert dense.shape == (3, n, n, n)
        assert np.array_equal(dense[1], lc.convolve_dense_debug(subs[1], corner))

    def test_stack_charges_every_component(self):
        """At one B a stack's tracked peak is C times one component's (the
        default B shrinks as C grows, so B is named here).  The z loop
        charges the stack's pad buffer and spectrum, the (C * B, k) rows it
        gathers, and one full-length (B, n) inverse temporary: the
        components' inverses run one at a time."""
        n, k, corner = 32, 8, (8, 16, 8)
        peaks = []
        for comps in (1, 4):
            mt = MemoryTracker()
            lc, _ = self._conv("flat:2", n, batch=n, memory=mt)
            lc.convolve(np.ones((comps, k, k, k)), corner)
            peaks.append(mt.peak_bytes)
        assert peaks[1] == 4 * peaks[0]  # no y_full_plane on a GEMM shape
        n, k, batch = 64, 16, 256
        mt = MemoryTracker()
        lc, _ = self._conv("flat:2", n, batch=batch, memory=mt)
        lc.convolve(np.ones((3, k, k, k)), (16, 32, 16))
        charged = {name: nbytes for op, name, nbytes in mt.events if op == "alloc"}
        assert charged["pencil_batch"] == 16 * 3 * batch * (2 * n + k)
        assert charged["z_full_batch"] == 16 * batch * n

    def test_operator_multiplying_by_the_kernel_is_the_scalar_path(self, rng):
        n, k, corner = 32, 8, (0, 8, 16)
        subs = rng.standard_normal((2, k, k, k))
        lc, kernel = self._conv("flat:2", n)
        seen = []

        def multiply(spec, ix, iy):
            seen.append((spec.shape, ix.copy(), iy.copy()))
            spec *= kernel[ix, iy, :]
            return spec

        op = LocalConvolution(n, PencilOperator(multiply), lc.policy, batch=40)
        for a, b in zip(op.convolve(subs, corner), lc.convolve(subs, corner)):
            assert np.array_equal(a.values, b.values)
        # half-spectrum pencils, batch by batch, with their frequency rows
        rows = n // 2 + 1
        assert sum(shape[1] for shape, _ix, _iy in seen) == rows * n
        assert all(shape == (2, len(ix), n) for shape, ix, _iy in seen)
        assert max(ix.max() for _s, ix, _iy in seen) == rows - 1

    def test_operator_may_mix_components(self, rng):
        n, k, corner = 16, 4, (4, 8, 0)
        subs = rng.standard_normal((2, k, k, k))
        spectrum = GaussianKernel(n=n, sigma=1.2).spectrum()
        policy = SamplingPolicy.flat_rate(1)

        def swap_and_multiply(spec, ix, iy):
            return spec[::-1] * spectrum[ix, iy, :]

        swapped = LocalConvolution(n, PencilOperator(swap_and_multiply), policy)
        plain = LocalConvolution(n, spectrum, policy)
        got = swapped.convolve(subs, corner)
        for field, sub in zip(got, subs[::-1]):
            np.testing.assert_allclose(
                field.values, plain.convolve(sub, corner).values, atol=1e-12
            )

    def test_operator_must_keep_the_batch_shape(self, rng):
        lc = LocalConvolution(
            16, PencilOperator(lambda spec, ix, iy: spec[:1]), SamplingPolicy()
        )
        with pytest.raises(ShapeError, match="pointwise operator"):
            lc.convolve(rng.standard_normal((2, 4, 4, 4)), (0, 0, 0))

    def test_rank_is_three_or_four(self, setup16):
        n, k, spec, sub = setup16
        lc = LocalConvolution(n, spec, SamplingPolicy())
        for bad in (sub[0], sub[None, None]):
            with pytest.raises(ShapeError):
                lc.convolve(bad, (0, 0, 0))
        with pytest.raises(ShapeError):  # bounds are checked on the box axes
            lc.convolve(sub[None], (n - 1, 0, 0))
