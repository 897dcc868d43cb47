"""Tests for PrunedPlan and its process-wide table, PadScratch, and the
Hermitian (half-spectrum) pruned transform building blocks."""

import json
import math
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy, parse_policy
from repro.errors import ShapeError
from repro.fft.pruned import (
    PadScratch,
    half_length,
    hermitian_partial_idft,
    hermitian_partial_idft_matrix,
    hermitian_weights,
    partial_idft,
    partial_idft_matrix,
    pencil_indices,
    pruned_input_fft,
    pruned_input_rfft,
    rslab_from_subcube,
)
from repro.fft import pruned_plan
from repro.fft.pruned_plan import (
    FFT_CROSSOVER,
    InverseStrategy,
    PrunedPlan,
    inverse_strategy,
    plan_for,
)
from repro.kernels.gaussian import GaussianKernel
from repro.util.arrays import embed_subcube
from repro.util.lru import WeightedLRU


class TestHermitianWeights:
    def test_even_n(self):
        w = hermitian_weights(8)
        assert w.shape == (5,)
        assert w[0] == 1.0 and w[-1] == 1.0
        assert np.all(w[1:-1] == 2.0)

    def test_odd_n(self):
        w = hermitian_weights(7)
        assert w.shape == (4,)
        assert w[0] == 1.0
        assert np.all(w[1:] == 2.0)

    def test_half_length(self):
        assert half_length(8) == 5
        assert half_length(7) == 4


class _FreshScratch(PadScratch):
    """A fresh zero buffer every call: what no reuse at all computes."""

    def padded(self, x, offset, n, axis):
        return PadScratch().padded(x, offset, n, axis)


class TestPadScratch:
    def test_matches_fresh_buffer(self, rng):
        scratch = PadScratch()
        x = rng.standard_normal((4, 6))
        buf = scratch.padded(x, 3, 16, axis=1)
        expect = np.zeros((4, 16))
        expect[:, 3:9] = x
        np.testing.assert_array_equal(buf, expect)

    def test_stale_band_cleared_on_new_placement(self, rng):
        """Reusing the buffer with a different (offset, extent) must not
        leak the previously written band."""
        scratch = PadScratch()
        x = rng.standard_normal((4, 6))
        scratch.padded(x, 0, 16, axis=1)
        y = rng.standard_normal((4, 6))
        buf = scratch.padded(y, 9, 16, axis=1)
        expect = np.zeros((4, 16))
        expect[:, 9:15] = y
        np.testing.assert_array_equal(buf, expect)

    def test_same_placement_reuses_without_clear(self, rng):
        scratch = PadScratch()
        x = rng.standard_normal((3, 5))
        buf1 = scratch.padded(x, 2, 12, axis=1)
        y = rng.standard_normal((3, 5))
        buf2 = scratch.padded(y, 2, 12, axis=1)
        assert buf1 is buf2
        expect = np.zeros((3, 12))
        expect[:, 2:7] = y
        np.testing.assert_array_equal(buf2, expect)

    def test_shorter_batch_is_served_from_the_full_batch_slot(self, rng):
        """A sub-domain's last, shorter pencil batch reuses the leading
        rows of the full batch's buffer, and transforms bitwise as a
        fresh buffer does."""
        scratch = PadScratch()
        for rows in (8, 3, 8, 3):
            x = rng.standard_normal((rows, 5)) + 1j * rng.standard_normal((rows, 5))
            got = pruned_input_fft(x, 2, 12, axis=1, scratch=scratch)
            np.testing.assert_array_equal(got, pruned_input_fft(x, 2, 12, axis=1))
        assert len(scratch._slots) == 1

    def test_a_pipeline_keeps_one_slot_per_stage(self, rng):
        """One n=32 ``flat:2`` solve: the x, y and z stages' three slots,
        no fourth for the z stage's remainder batch, and the result
        bitwise a fresh pipeline's with scratch sharing no slot."""
        n, k = 32, 8
        spectrum = GaussianKernel(n=n, sigma=2.0).spectrum()
        field = rng.standard_normal((n, n, n))
        pipeline = LowCommConvolution3D(n, k, spectrum, policy=SamplingPolicy.flat_rate(2))
        approx = pipeline.run_serial(field).approx
        assert len(pipeline.local._scratch._slots) == 3
        unshared = LowCommConvolution3D(n, k, spectrum, policy=SamplingPolicy.flat_rate(2))
        unshared.local._scratch = _FreshScratch()
        np.testing.assert_array_equal(unshared.run_serial(field).approx, approx)

    def test_separate_slots_per_dtype(self, rng):
        scratch = PadScratch()
        xr = rng.standard_normal((2, 3))
        xc = xr + 1j * xr
        bufr = scratch.padded(xr, 0, 8, axis=1)
        bufc = scratch.padded(xc, 0, 8, axis=1)
        assert bufr.dtype == np.float64
        assert bufc.dtype == np.complex128


class TestPrunedInputRfft:
    def test_matches_rfft_of_padded(self, rng):
        x = rng.standard_normal((5, 4))
        n, offset = 16, 6
        padded = np.zeros((5, n))
        padded[:, offset : offset + 4] = x
        expect = np.fft.rfft(padded, axis=1)
        got = pruned_input_rfft(x, offset, n, axis=1)
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_scratch_path_matches(self, rng):
        x = rng.standard_normal((5, 4))
        base = pruned_input_rfft(x, 2, 16, axis=1)
        scratch = PadScratch()
        got = pruned_input_rfft(x, 2, 16, axis=1, scratch=scratch)
        np.testing.assert_array_equal(got, base)

    def test_rejects_complex_input(self):
        with pytest.raises(ShapeError):
            pruned_input_rfft(np.zeros(4, dtype=np.complex128), 0, 8, axis=0)

    def test_fft_scratch_path_matches(self, rng):
        x = rng.standard_normal((5, 4))
        base = pruned_input_fft(x, 2, 16, axis=1)
        scratch = PadScratch()
        got = pruned_input_fft(x, 2, 16, axis=1, scratch=scratch)
        np.testing.assert_array_equal(got, base)


def _full_slab(sub, corner, n):
    """The full ``n x n x k`` complex slab: x and y FFTs of the padded box."""
    dense = embed_subcube(sub, (n, n, sub.shape[2]), (corner[0], corner[1], 0))
    return np.fft.fft(np.fft.fft(dense, axis=0), axis=1)


class TestHalfSlab:
    def test_rslab_is_prefix_of_full_slab(self, rng):
        n, k = 16, 4
        sub = rng.standard_normal((k, k, k))
        full = _full_slab(sub, (4, 8, 0), n)
        half = rslab_from_subcube(sub, (4, 8, 0), n)
        h = half_length(n)
        assert half.shape == (h, n, k)
        np.testing.assert_allclose(half, full[:h], atol=1e-12)

    def test_full_slab_recoverable_by_hermitian_symmetry(self, rng):
        n, k = 16, 4
        sub = rng.standard_normal((k, k, k))
        full = _full_slab(sub, (0, 4, 0), n)
        half = rslab_from_subcube(sub, (0, 4, 0), n)
        fx, fy = 3, 5
        np.testing.assert_allclose(
            full[-fx, -fy], np.conj(half[fx, fy]), atol=1e-12
        )


class TestHermitianPartialIdft:
    def test_matches_full_partial_idft(self, rng):
        n = 16
        signal = rng.standard_normal((6, n))
        spec = np.fft.fft(signal, axis=1)
        half = spec[:, : half_length(n)]
        coords = np.array([0, 3, 7, 12, 15])
        full_out = partial_idft(spec, coords, axis=1)
        herm_out = hermitian_partial_idft(half, coords, n, axis=1)
        assert herm_out.dtype == np.float64
        np.testing.assert_allclose(herm_out, np.real(full_out), atol=1e-12)

    def test_odd_n(self, rng):
        n = 15
        signal = rng.standard_normal((4, n))
        spec = np.fft.fft(signal, axis=1)
        half = spec[:, : half_length(n)]
        coords = np.arange(n)
        out = hermitian_partial_idft(half, coords, n, axis=1)
        np.testing.assert_allclose(out, signal, atol=1e-12)

    def test_wrong_half_length_rejected(self):
        with pytest.raises(ShapeError):
            hermitian_partial_idft(np.zeros((2, 4), dtype=complex), [0], 16)

    def test_matrix_is_weighted_half(self):
        n, coords = 8, [0, 2, 5]
        full = partial_idft_matrix(n, coords)
        herm = hermitian_partial_idft_matrix(n, coords)
        h = half_length(n)
        np.testing.assert_allclose(
            herm, full[:, :h] * hermitian_weights(n)[None, :], atol=1e-15
        )

    def test_coords_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            partial_idft_matrix(8, [0, 8])


class TestPrunedPlan:
    def test_plan_stages_match_direct_functions(self, rng):
        n, k = 16, 4
        coords = np.array([0, 2, 5, 9, 14])
        plan = PrunedPlan(n, coords, coords, coords)
        sub = rng.standard_normal((k, k, k))
        slab = plan.forward_slab(sub, (4, 0, 8))
        np.testing.assert_array_equal(slab, rslab_from_subcube(sub, (4, 0, 8), n))
        flat = slab.reshape(half_length(n) * n, k)
        spec = plan.zstage(flat[:32], 8)
        np.testing.assert_allclose(
            plan.idft_z(spec), partial_idft(spec, coords, axis=1), atol=1e-12
        )

    def test_hermitian_plan_shapes(self):
        n = 16
        coords = np.arange(n)
        plan = PrunedPlan(n, coords, coords, coords)
        assert plan.slab_rows == half_length(n)
        assert plan.num_pencils == half_length(n) * n
        # one real matrix [Re M | -Im M] over the stacked real and imaginary rows
        assert plan.mat_x.shape == (n, 2 * half_length(n))
        assert plan.mat_x.dtype == np.float64

    def test_pencil_index_hoisting(self):
        """One read-only ``(fx, fy)`` pair per ``n``, not a copy per plan."""
        n = 8
        ix, iy = np.divmod(np.arange(half_length(n) * n), n)
        pair = pencil_indices(n)
        np.testing.assert_array_equal(pair[0], ix)
        np.testing.assert_array_equal(pair[1], iy)
        assert pencil_indices(n) is pair
        assert not pair[0].flags.writeable and not pair[1].flags.writeable
        plan = PrunedPlan(n, np.arange(n), np.arange(n), np.arange(n))
        assert not hasattr(plan, "pencil_ix")


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_rel(got, want, tol=1e-12):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


class TestInverseStrategies:
    """Every inverse stage under every strategy against the reference
    partial iDFT — strategies installed by hand, so each is exercised at
    every m whatever the rule would pick there."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        # powers of two, odd, 2 * prime
        n=st.sampled_from([4, 8, 16, 32, 5, 9, 15, 27, 6, 10, 14, 22]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_stages_match_the_oracle_at_every_retained_size(self, n, seed):
        rng = np.random.default_rng(seed)
        rows = half_length(n)
        spec = _complex(rng, (5, n))
        zred = _complex(rng, (3, n, 4))
        yred = _complex(rng, (rows, 3, 4))
        for m in range(1, n + 1):  # includes m = n and the crossover +- 1
            coords = np.sort(rng.choice(n, size=m, replace=False))
            plan = PrunedPlan(n, coords, coords, coords)
            want_z = partial_idft(spec, coords, axis=-1)
            want_y = partial_idft(zred, coords, axis=1)
            want_x = hermitian_partial_idft(yred, coords, n, axis=0)
            for form in ("gemm", "fft"):
                plan._set_strategy(InverseStrategy(form, form))
                assert (plan.mat_z is None) == (plan.mat_y is None) == (form == "fft")
                got_z = plan.idft_z(spec)
                _assert_rel(got_z, want_z)
                out = np.full_like(got_z, np.nan)
                assert plan.idft_z(spec, out=out) is out
                assert out.tobytes() == got_z.tobytes()
                _assert_rel(plan.idft_y(zred), want_y)
            got_x = plan.idft_x(yred)
            _assert_rel(got_x, want_x)
            assert got_x.flags.c_contiguous
            work = np.empty(yred.size + 7, dtype=np.complex128)
            assert plan.idft_x(yred, work=work).tobytes() == got_x.tobytes()

    def test_rule_is_the_documented_threshold(self):
        for n in (16, 32, 64, 128, 256):
            edge = FFT_CROSSOVER * math.log2(n)
            for m in range(1, n + 1):
                form = "fft" if m > edge else "gemm"
                assert inverse_strategy(n, m, m) == (form, form)
                assert inverse_strategy(n, m, n) == ("fft" if n > edge else "gemm", form)

    def test_matrices_built_only_for_axes_that_use_them(self):
        n = 64
        few, many = np.arange(0, n, 4), np.arange(n)
        plan = PrunedPlan(n, few, many, few)
        assert plan.strategy == ("gemm", "fft")
        assert plan.mat_y is None
        assert plan.mat_z.shape == (len(few), n)
        assert plan.mat_x.shape == (len(few), 2 * half_length(n))


#: (n, k, policy) of BENCHMARK.json's four workloads (two share a shape)
BENCHMARK_SHAPES = [(64, 16, "banded"), (128, 32, "flat:2"), (32, 8, "flat:2")]


def benchmark_shape_strategies():
    """``{shape: [strategy of the plan for each probed sub-domain]}`` —
    also run by :func:`test_strategy_identical_in_a_fresh_process`'s child."""
    out = {}
    for n, k, spec in BENCHMARK_SHAPES:
        policy = parse_policy(spec)
        picked = []
        for corner in [(0, 0, 0), (n // 2, n // 2 - k, n - k)]:
            pattern = policy.pattern_for(n, k, corner)
            sets = [pattern.axis_coordinate_set(axis) for axis in range(3)]
            picked.append(list(PrunedPlan(n, *sets).strategy))
        out[f"{n}/{k}/{spec}"] = picked
    return out


def test_strategy_identical_in_a_fresh_process():
    """Cross-mode bitwise identity rests on every process picking the same
    arithmetic: the strategy must be a function of the shape alone."""
    here = benchmark_shape_strategies()
    # where the benchmark's workloads sit relative to the crossover
    assert all(s == ["gemm", "gemm"] for s in here["32/8/flat:2"])
    assert all(s == ["gemm", "gemm"] for s in here["64/16/banded"])
    assert all(s == ["fft", "fft"] for s in here["128/32/flat:2"])
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            "import json; from tests.test_fft_pruned_plan import "
            "benchmark_shape_strategies as f; print(json.dumps(f()))",
        ],
        capture_output=True, text=True, timeout=120, env=env, cwd=str(root),
    )
    assert child.returncode == 0, child.stderr[-2000:]
    assert json.loads(child.stdout) == here


class TestPlanCache:
    """The process-wide plan table behind :func:`plan_for`."""

    def test_congruent_patterns_share_plan(self):
        c = np.array([0, 3, 7])
        p1 = plan_for(16, c, c, c)
        p2 = plan_for(16, c.copy(), c.copy(), c.copy())
        assert p1 is p2
        table = pruned_plan.PLANS
        assert table.hits == 1 and table.misses == 1
        assert len(table) == 1

    def test_distinct_configurations_get_distinct_plans(self):
        c = np.array([0, 3, 7])
        p1 = plan_for(16, c, c, c)
        p2 = plan_for(32, c, c, c)
        p3 = plan_for(16, c, c, np.array([0, 1, 2]))
        assert p1 is not p2 and p1 is not p3
        assert pruned_plan.PLANS.misses == 3

    def test_eviction_bounds_size(self, monkeypatch):
        """Plans are weighed by the bytes they keep alive, matrices
        included, and the table holds no more than its bound."""
        sets = [np.arange(m + 1) for m in range(4)]
        plans = [PrunedPlan(16, c, c, c) for c in sets]
        for plan in plans:
            coords = plan.coords_x.nbytes + plan.coords_y.nbytes + plan.coords_z.nbytes
            matrices = plan.mat_x.nbytes + plan.mat_y.nbytes + plan.mat_z.nbytes
            assert plan.nbytes == coords + matrices
        bound = plans[2].nbytes + plans[3].nbytes
        table = WeightedLRU(max_weight=bound)
        monkeypatch.setattr(pruned_plan, "PLANS", table)
        for c in sets:
            plan_for(16, c, c, c)
        assert len(table) == 2 and table.weight == bound


class TestPlanCacheThreadSafety:
    def test_concurrent_congruent_gets_share_one_plan(self):
        # Rank threads and serve engines read one table: hammer it from
        # many threads and require one resident plan per configuration,
        # handed to every thread, and consistent hit/miss accounting (a
        # racing first lookup may build a plan the table then discards).
        coord_sets = [np.arange(m + 2) for m in range(4)]
        seen = [[] for _ in range(8)]
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait()  # maximize interleaving on the first gets
            for _ in range(50):
                for coords in coord_sets:
                    seen[slot].append(plan_for(16, coords, coords, coords))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)

        table = pruned_plan.PLANS
        assert len(table) == len(coord_sets)
        assert len(coord_sets) <= table.misses <= 8 * len(coord_sets)
        assert table.hits + table.misses == 8 * 50 * len(coord_sets)
        # every thread saw the same plan object per configuration
        canonical = [plan_for(16, c, c, c) for c in coord_sets]
        for slot in seen:
            for i, plan in enumerate(slot):
                assert plan is canonical[i % len(coord_sets)]


class TestMatrixCacheThreadSafety:
    def test_concurrent_matrix_builds_past_the_bound(self):
        """Every plan builds through one process-wide matrix table, and
        ``local`` rank threads build plans concurrently: threads missing on
        thousands of distinct coordinate sets at once (more than 256
        entries' worth) must neither raise nor read a wrong matrix."""
        n, threads, calls = 16, 8, 400
        errors, wrong = [], []
        barrier = threading.Barrier(threads)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(calls):
                    m = rng.integers(1, n)
                    coords = np.sort(rng.choice(n, size=m, replace=False))
                    mat = partial_idft_matrix(n, coords)
                    want = np.exp(2j * np.pi * coords[:, None] * np.arange(n) / n) / n
                    if not np.array_equal(mat, want):
                        wrong.append(coords)
            except Exception as exc:  # a lost race on shared state raises
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in pool)
        assert not errors, errors[:3]
        assert not wrong
