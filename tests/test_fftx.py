"""Tests for the mini-FFTX DSL: iodims, callbacks, sub-plans, composition,
execution, optimization, and the Fig 5 MASSIF plan."""

import numpy as np
import pytest

from repro.core.local_conv import LocalConvolution
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError, PlanError
from repro.fftx.callbacks import get_callback
from repro.fftx import (
    ExecutionStats,
    FFTX_MODE_OBSERVE,
    IODim,
    fftx_execute,
    fftx_init,
    fftx_plan_compose,
    fftx_shutdown,
    massif_convolution_plan,
    optimize_plan,
    plan_guru_dft_c2r,
    plan_guru_dft_r2c,
    plan_guru_pointwise_c2c,
    register_callback,
)
from repro.fftx.modes import current_env
from repro.kernels.gaussian import GaussianKernel
from repro.util.arrays import embed_subcube


class TestIODim:
    def test_defaults_full_axis(self):
        d = IODim(n=16)
        assert d.extent == 16
        assert not d.is_pruned

    def test_pruned(self):
        d = IODim(n=16, data_extent=4, offset=2)
        assert d.is_pruned

    def test_rejects_overflow(self):
        with pytest.raises(ConfigurationError):
            IODim(n=8, data_extent=4, offset=6)

    def test_rejects_bad_extent(self):
        with pytest.raises(ConfigurationError):
            IODim(n=8, data_extent=0)


class TestCallbacks:
    def test_library_callbacks_registered(self):
        for name in ("complex_scaling", "adaptive_sampling", "copy_offset"):
            assert callable(get_callback(name))

    def test_register_custom(self):
        register_callback("double_it", lambda x: 2 * x)
        assert get_callback("double_it")(3) == 6

    def test_register_non_callable(self):
        with pytest.raises(ConfigurationError):
            register_callback("bad", 42)


class TestModes:
    def test_init_shutdown_cycle(self):
        env = fftx_init(FFTX_MODE_OBSERVE)
        assert env.flags & FFTX_MODE_OBSERVE
        assert current_env() is env
        fftx_shutdown()
        assert current_env() is None

    def test_double_init_rejected(self):
        fftx_init()
        try:
            with pytest.raises(ConfigurationError):
                fftx_init()
        finally:
            fftx_shutdown()

    def test_shutdown_without_init(self):
        with pytest.raises(ConfigurationError):
            fftx_shutdown()


class TestSubPlans:
    def test_r2c_equals_dense_fft(self, rng):
        n, k = 16, 4
        sub = rng.standard_normal((k, k, k))
        dims = tuple(IODim(n=n, data_extent=k, offset=2) for _ in range(3))
        plan = plan_guru_dft_r2c(dims, "in", "out")
        env = {"in": sub}
        plan.apply(env)
        ref = np.fft.fftn(embed_subcube(sub, (n, n, n), (2, 2, 2)))
        np.testing.assert_allclose(env["out"], ref, atol=1e-8)

    def test_r2c_shape_mismatch(self, rng):
        dims = tuple(IODim(n=8, data_extent=2) for _ in range(3))
        plan = plan_guru_dft_r2c(dims, "in", "out")
        with pytest.raises(PlanError):
            plan.apply({"in": np.zeros((3, 3, 3))})

    def test_r2c_needs_three_dims(self):
        with pytest.raises(ConfigurationError):
            plan_guru_dft_r2c([IODim(n=8)], "in", "out")

    def test_pointwise_multiplies(self, rng):
        spec = rng.standard_normal((4, 4, 4))
        plan = plan_guru_pointwise_c2c("a", "b", kernel=spec)
        x = rng.standard_normal((4, 4, 4)) + 0j
        env = {"a": x}
        plan.apply(env)
        np.testing.assert_allclose(env["b"], x * spec, atol=1e-12)

    def test_c2r_partial_inverse(self, rng):
        spec = np.fft.fftn(rng.standard_normal((8, 8, 8)))
        coords = ([0, 3, 7], [1, 2], [4])
        plan = plan_guru_dft_c2r("s", "box", coords)
        env = {"s": spec}
        plan.apply(env)
        full = np.real(np.fft.ifftn(spec))
        expected = full[np.ix_(*coords)]
        np.testing.assert_allclose(env["box"], expected, atol=1e-10)

    def test_missing_buffer(self):
        plan = plan_guru_pointwise_c2c("missing", "out", kernel=np.ones(2))
        with pytest.raises(PlanError):
            plan.apply({})


class TestCompose:
    def test_dataflow_validation(self):
        p1 = plan_guru_pointwise_c2c("input", "a", kernel=np.ones(2))
        p2 = plan_guru_pointwise_c2c("a", "output", kernel=np.ones(2))
        plan = fftx_plan_compose([p1, p2])
        assert plan.num_subplans == 2

    def test_disconnected_chain_rejected(self):
        p1 = plan_guru_pointwise_c2c("input", "a", kernel=np.ones(2))
        p2 = plan_guru_pointwise_c2c("nope", "output", kernel=np.ones(2))
        with pytest.raises(PlanError):
            fftx_plan_compose([p1, p2])

    def test_missing_output_rejected(self):
        p1 = plan_guru_pointwise_c2c("input", "a", kernel=np.ones(2))
        with pytest.raises(PlanError):
            fftx_plan_compose([p1], output_name="other")

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            fftx_plan_compose([])


class TestMassifPlan:
    @pytest.fixture
    def setup(self, rng):
        n, k = 16, 4
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        sub = rng.standard_normal((k, k, k))
        return n, k, spec, sub

    def test_matches_local_convolution(self, setup):
        n, k, spec, sub = setup
        pol = SamplingPolicy.flat_rate(2)
        plan, pattern = massif_convolution_plan(n, k, (4, 8, 0), spec, policy=pol)
        out = fftx_execute(plan, sub)
        ref = LocalConvolution(n, spec, pol).convolve(sub, (4, 8, 0))
        np.testing.assert_allclose(out.values, ref.values, atol=1e-10)
        assert out.pattern.sample_count == ref.pattern.sample_count

    def test_plan_reusable(self, setup, rng):
        """'The plan can be executed more than once.'"""
        n, k, spec, sub = setup
        plan, _ = massif_convolution_plan(
            n, k, (0, 0, 0), spec, policy=SamplingPolicy.flat_rate(2)
        )
        out1 = fftx_execute(plan, sub)
        sub2 = rng.standard_normal((k, k, k))
        out2 = fftx_execute(plan, sub2)
        assert not np.allclose(out1.values, out2.values)
        out1b = fftx_execute(plan, sub)
        np.testing.assert_allclose(out1.values, out1b.values, atol=1e-14)

    def test_kernel_shape_check(self):
        with pytest.raises(ConfigurationError):
            massif_convolution_plan(16, 4, (0, 0, 0), np.zeros((8, 8, 8)))

    def test_optimizer_preserves_semantics(self, setup):
        n, k, spec, sub = setup
        pol = SamplingPolicy.flat_rate(2)
        plan, _ = massif_convolution_plan(n, k, (4, 4, 4), spec, policy=pol)
        optimized, report = optimize_plan(plan)
        out_a = fftx_execute(plan, sub)
        out_b = fftx_execute(optimized, sub)
        np.testing.assert_allclose(out_a.values, out_b.values, atol=1e-12)
        assert report.fused_pairs == [("dft_r2c", "pointwise_c2c")]
        assert optimized.num_subplans == plan.num_subplans - 1

    def test_optimizer_reports_costs(self, setup):
        n, k, spec, _sub = setup
        plan, _ = massif_convolution_plan(
            n, k, (0, 0, 0), spec, policy=SamplingPolicy.flat_rate(2)
        )
        _, report = optimize_plan(plan)
        assert report.total_flops > 0
        assert 0 <= report.workspace_savings < 1

    def test_observe_mode_records_stats(self, setup):
        n, k, spec, sub = setup
        plan, _ = massif_convolution_plan(
            n, k, (0, 0, 0), spec, policy=SamplingPolicy.flat_rate(2)
        )
        stats = ExecutionStats()
        fftx_execute(plan, sub, stats=stats)
        assert len(stats.steps) == 4
        assert stats.total_seconds > 0
        kinds = [k_ for k_, _s, _b in stats.steps]
        assert kinds == ["dft_r2c", "pointwise_c2c", "dft_c2r", "copy"]
