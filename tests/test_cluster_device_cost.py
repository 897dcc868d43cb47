"""Tests for device models, cuFFT workspace model, and cost functions."""

import math

import pytest

from repro.cluster.cost import (
    axis_samples_flat,
    comm_time_ours,
    comm_time_traditional_fft,
    dense_conv_flops,
    dense_conv_time,
    fft_stage_flops,
    pruned_conv_time,
    sparse_sample_count,
    PrunedConvWork,
)
from repro.cluster.cufft_model import CufftWorkspaceModel
from repro.cluster.device import (
    DEVICE_CATALOG,
    V100_16GB,
    V100_32GB,
    XEON_GOLD_6148,
)
from repro.cluster.network import Link
from repro.errors import ConfigurationError


class TestDevice:
    def test_catalog_lookup(self):
        assert DEVICE_CATALOG["V100-16GB"].memory_bytes == 16 * 2**30

    def test_cpu_flat_rate(self):
        t1 = XEON_GOLD_6148.fft_time(1e9, in_flight_points=1e3)
        t2 = XEON_GOLD_6148.fft_time(1e9, in_flight_points=1e9)
        assert t1 == pytest.approx(t2)

    def test_gpu_derated_when_small(self):
        small = V100_32GB.fft_time(1e9, in_flight_points=1e5)
        large = V100_32GB.fft_time(1e9, in_flight_points=1e12)
        assert small > large

    def test_transfer_time(self):
        assert V100_32GB.transfer_time(12e9) == pytest.approx(1.0)

    def test_bad_kind_rejected(self):
        from repro.cluster.device import Device

        with pytest.raises(ConfigurationError):
            Device("x", "tpu", 1, 1, 1, 1, 0, 0)

    def test_catalog_has_paper_devices(self):
        names = set(DEVICE_CATALOG)
        assert {"V100-16GB", "V100-32GB", "P100-16GB", "Xeon-Gold-6148"} <= names


class TestCommCost:
    def test_eq1_formula(self):
        link = Link(alpha_s=0.0, bandwidth_bytes_per_s=1e9)
        n, p = 1024, 64
        expected = 2 * (n**3 / p) * 8 / 1e9
        assert comm_time_traditional_fft(n, p, link) == pytest.approx(expected)

    def test_eq2(self):
        link = Link(alpha_s=2e-6, bandwidth_bytes_per_s=1e9)
        assert link.message_time(1000) == pytest.approx(2e-6 + 1e-6)

    def test_eq6_less_than_eq1(self):
        link = Link()
        t_ours = comm_time_ours(1024, 128, 8, 64, link)
        t_fft = comm_time_traditional_fft(1024, 64, link)
        assert t_ours < t_fft

    def test_sparse_sample_count(self):
        assert sparse_sample_count(8, 8, 2) == 0
        assert sparse_sample_count(4, 2, 1) == 4**3 - 2**3

    def test_advantage_grows_with_r(self):
        link = Link()
        t_fft = comm_time_traditional_fft(1024, 64, link)
        a1 = t_fft / comm_time_ours(1024, 128, 4, 64, link)
        a2 = t_fft / comm_time_ours(1024, 128, 16, 64, link)
        assert a2 > a1 > 1

    def test_latency_term(self):
        link = Link(alpha_s=1e-3, bandwidth_bytes_per_s=1e30)
        t = comm_time_traditional_fft(64, 8, link, include_latency=True)
        assert t == pytest.approx(2 * 7 * 1e-3, rel=1e-6)

    def test_rejects_bad_r(self):
        with pytest.raises(ConfigurationError):
            sparse_sample_count(8, 4, 0)


class TestFlops:
    def test_fft_stage(self):
        assert fft_stage_flops(10, 8) == pytest.approx(5 * 10 * 8 * 3)

    def test_length_one_free(self):
        assert fft_stage_flops(10, 1) == 0.0

    def test_dense_conv_flops_scaling(self):
        assert dense_conv_flops(64) > 2 * dense_conv_flops(32)

    def test_pruned_work_total(self):
        w = PrunedConvWork(n=64, k=8, sz=16, sy=16)
        assert w.total == pytest.approx(
            w.forward_x + w.forward_y + w.forward_z + w.pointwise
            + w.inverse_z + w.inverse_y + w.inverse_x
        )

    def test_axis_samples_flat(self):
        assert axis_samples_flat(64, 16, 4) == 16 + 12
        assert axis_samples_flat(64, 64, 4) == 64


class TestTimeModels:
    def test_cpu_dense_conv_matches_paper_512(self):
        """Calibration check: N=512 FFTW ~9.0 s (Table 3)."""
        t = dense_conv_time(XEON_GOLD_6148, 512)
        assert 7.0 < t < 12.0

    def test_speedup_grows_with_n(self):
        s = [
            dense_conv_time(XEON_GOLD_6148, n)
            / pruned_conv_time(V100_32GB, n, 32, 4, batch=1024)
            for n in (128, 256, 512)
        ]
        assert s[0] < s[1] < s[2]

    def test_pruned_faster_with_bigger_batch(self):
        t_small = pruned_conv_time(V100_32GB, 256, 32, 4, batch=256)
        t_big = pruned_conv_time(V100_32GB, 256, 32, 4, batch=2048)
        assert t_big < t_small

    def test_rejects_k_gt_n(self):
        with pytest.raises(ConfigurationError):
            pruned_conv_time(V100_32GB, 64, 128, 4)


class TestCufftModel:
    def test_table4_estimates_exact(self):
        """The reverse-engineered formula matches the paper's column."""
        m = CufftWorkspaceModel()
        assert m.estimated_gb(2048, 32, 128) == pytest.approx(8.00, abs=0.01)
        assert m.estimated_gb(1024, 32, 32) == pytest.approx(2.50, abs=0.01)
        assert m.estimated_gb(512, 32, 16) == pytest.approx(0.625, abs=0.01)

    def test_table4_actuals_close(self):
        m = CufftWorkspaceModel()
        paper = {
            (512, 32, 16): 1.29,
            (1024, 32, 32): 4.33,
            (2048, 32, 128): 13.16,
            (2048, 64, 64): 26.20,
        }
        for (n, k, r), actual in paper.items():
            assert m.actual_gb(n, k, r) == pytest.approx(actual, rel=0.05)

    def test_actual_exceeds_estimate(self):
        m = CufftWorkspaceModel()
        assert m.actual_bytes(512, 32, 16) > m.estimated_bytes(512, 32, 16)

    def test_fits(self):
        m = CufftWorkspaceModel()
        assert m.fits(2048, 64, 64, V100_32GB.memory_bytes)
        assert not m.fits(2048, 128, 64, V100_32GB.memory_bytes)
        assert not m.fits(2048, 64, 64, V100_16GB.memory_bytes)

    def test_monotone_in_k(self):
        m = CufftWorkspaceModel()
        assert m.actual_gb(1024, 64, 32) > m.actual_gb(1024, 32, 32)

    def test_monotone_in_r(self):
        m = CufftWorkspaceModel()
        assert m.actual_gb(1024, 32, 16) > m.actual_gb(1024, 32, 32)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            CufftWorkspaceModel().estimated_bytes(64, 128, 4)
