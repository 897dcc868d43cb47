"""Tests for the baselines: distributed FFTs, traditional conv, heFFTe model,
single-GPU dense convolution."""

import numpy as np
import pytest

from repro.baselines.distributed_fft import PencilDistributedFFT, SlabDistributedFFT
from repro.baselines.heffte_like import fft_compute_time, heffte_comm_time, scaling_curve
from repro.baselines.single_gpu import (
    dense_gpu_conv_bytes,
    max_dense_grid,
    run_dense_gpu_convolution,
)
from repro.baselines.traditional_conv import TraditionalDistributedConvolution
from repro.cluster.comm import SimulatedComm
from repro.cluster.device import V100_16GB, V100_32GB, XEON_GOLD_6148
from repro.cluster.memory import MemoryTracker
from repro.cluster.network import Link
from repro.core.reference import reference_convolve
from repro.errors import ConfigurationError, DeviceMemoryError
from repro.kernels.gaussian import GaussianKernel


class TestSlabFFT:
    def test_forward_matches_numpy(self, rng):
        n, p = 16, 4
        comm = SimulatedComm(p)
        fft = SlabDistributedFFT(n, comm)
        field = rng.standard_normal((n, n, n))
        # after forward, rank r holds the y-slab [r*n/p, (r+1)*n/p)
        spec = np.concatenate(fft.forward(fft.scatter(field)), axis=1)
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-9)

    def test_roundtrip(self, rng):
        n, p = 8, 2
        comm = SimulatedComm(p)
        fft = SlabDistributedFFT(n, comm)
        field = rng.standard_normal((n, n, n))
        back = fft.gather_xslabs(fft.inverse(fft.forward(fft.scatter(field))))
        np.testing.assert_allclose(np.real(back), field, atol=1e-9)

    def test_one_alltoall_per_transform(self, rng):
        comm = SimulatedComm(4)
        fft = SlabDistributedFFT(16, comm)
        fft.forward(fft.scatter(rng.standard_normal((16, 16, 16))))
        assert comm.ledger.alltoall_rounds == 1

    def test_p_must_divide_n(self):
        with pytest.raises(ConfigurationError):
            SlabDistributedFFT(10, SimulatedComm(3))


def gather_pencils(fft, blocks):
    """Dense spectrum from the post-forward x-pencil layout: rank (i, j)
    holds all x, the i-th y span and the j-th z span."""
    rows = [
        np.concatenate([blocks[i * fft.py + j] for j in range(fft.py)], axis=2)
        for i in range(fft.px)
    ]
    return np.concatenate(rows, axis=1)


class TestPencilFFT:
    def test_forward_matches_numpy(self, rng):
        n = 8
        comm = SimulatedComm(4)
        fft = PencilDistributedFFT(n, comm, px=2, py=2)
        field = rng.standard_normal((n, n, n))
        spec = gather_pencils(fft, fft.forward(fft.scatter(field)))
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-9)

    def test_two_alltoalls_per_transform(self, rng):
        comm = SimulatedComm(4)
        fft = PencilDistributedFFT(8, comm, px=2, py=2)
        fft.forward(fft.scatter(rng.standard_normal((8, 8, 8))))
        assert comm.ledger.alltoall_rounds == 2

    def test_asymmetric_grid(self, rng):
        n = 8
        comm = SimulatedComm(2)
        fft = PencilDistributedFFT(n, comm, px=1, py=2)
        field = rng.standard_normal((n, n, n))
        spec = gather_pencils(fft, fft.forward(fft.scatter(field)))
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-9)

    def test_grid_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            PencilDistributedFFT(8, SimulatedComm(4), px=3, py=2)


class TestTraditionalConvolution:
    @pytest.mark.parametrize("mode,expected_rounds", [("slab", 2), ("pencil", 4)])
    def test_exact_and_round_count(self, mode, expected_rounds, rng):
        n, p = 16, 4
        field = rng.standard_normal((n, n, n))
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        comm = SimulatedComm(p)
        conv = TraditionalDistributedConvolution(n, comm, mode=mode)
        res = conv.convolve(field, spec)
        np.testing.assert_allclose(
            res.result, reference_convolve(field, spec), atol=1e-9
        )
        assert res.alltoall_rounds == expected_rounds
        assert res.comm_bytes > 0

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            TraditionalDistributedConvolution(8, SimulatedComm(2), mode="magic")


class TestHeffteModel:
    def test_overlap_reduces_comm(self):
        link = Link()
        raw = heffte_comm_time(256, 64, link, overlap=0.0)
        hidden = heffte_comm_time(256, 64, link, overlap=0.8)
        assert hidden == pytest.approx(0.2 * raw)

    def test_invalid_overlap(self):
        with pytest.raises(ConfigurationError):
            heffte_comm_time(256, 64, Link(), overlap=1.0)

    def test_scaling_curve_heffte_never_slower(self):
        rows = scaling_curve(512, [4, 32, 256, 2048], XEON_GOLD_6148, Link())
        for _p, t_mpi, t_heffte in rows:
            assert t_heffte <= t_mpi

    def test_both_curves_flatten(self):
        """Past the communication crossover, doubling P stops helping."""
        rows = scaling_curve(256, [2, 8192, 16384], XEON_GOLD_6148, Link())
        _, t_small, _ = rows[0]
        _, t_a, _ = rows[1]
        _, t_b, _ = rows[2]
        assert t_a < t_small  # scaling helps initially
        assert t_b > 0.4 * t_a  # but flattens (no 2x gain from 2x workers)

    def test_compute_time_scales(self):
        t1 = fft_compute_time(256, 1, XEON_GOLD_6148)
        t8 = fft_compute_time(256, 8, XEON_GOLD_6148)
        assert t8 == pytest.approx(t1 / 8)


class TestSingleGPU:
    def test_paper_ceiling_1024_on_32gb(self):
        assert max_dense_grid(V100_32GB) == 1024

    def test_ceiling_512_on_16gb(self):
        assert max_dense_grid(V100_16GB) == 512

    def test_bytes_formula(self):
        n = 64
        assert dense_gpu_conv_bytes(n) == 2 * 16 * (n * n * (n // 2 + 1))

    def test_execution_with_tracker(self, rng):
        n = 8
        field = rng.standard_normal((n, n, n))
        spec = GaussianKernel(n=n, sigma=1.0).spectrum()
        mt = MemoryTracker(capacity_bytes=10**9)
        out = run_dense_gpu_convolution(field, spec, memory=mt)
        np.testing.assert_allclose(out, reference_convolve(field, spec), atol=1e-10)
        assert mt.current_bytes == 0
        assert mt.peak_bytes == dense_gpu_conv_bytes(n)

    def test_oom_when_capacity_small(self, rng):
        n = 16
        field = rng.standard_normal((n, n, n))
        spec = GaussianKernel(n=n, sigma=1.0).spectrum()
        mt = MemoryTracker(capacity_bytes=1024)
        with pytest.raises(DeviceMemoryError):
            run_dense_gpu_convolution(field, spec, memory=mt)
