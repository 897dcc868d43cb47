"""Tests for the baselines: distributed FFTs and the traditional
convolution on loopback ranks, the heFFTe model, single-GPU dense
convolution."""

import numpy as np
import pytest

from repro.baselines.heffte_like import fft_compute_time, heffte_comm_time, scaling_curve
from repro.baselines.single_gpu import (
    dense_gpu_conv_bytes,
    max_dense_grid,
    run_dense_gpu_convolution,
)
from repro.cluster.device import V100_16GB, V100_32GB, XEON_GOLD_6148
from repro.cluster.memory import MemoryTracker
from repro.cluster.network import Link
from repro.core.reference import reference_convolve
from repro.dist.ledger import alltoall_rounds
from repro.dist.runtime import run_local
from repro.dist.traditional import FftGrid, fftn, ifftn, traditional_convolve
from repro.dist.wire import HEADER_BYTES
from repro.errors import ConfigurationError, DeviceMemoryError
from repro.kernels.gaussian import GaussianKernel


def run_transform(field, p, mode, grid=None, roundtrip=False):
    """Forward-transform ``field`` on ``p`` loopback ranks (and back, with
    ``roundtrip``); returns the assembled dense result and the all-to-all
    rounds read off every rank's ledger."""
    n = field.shape[0]
    layout = FftGrid.for_ranks(n, p, mode, grid)

    def body(comm, _abort):
        out = fftn(comm, layout, field[layout.input_slices(comm.rank)])
        if roundtrip:
            out = ifftn(comm, layout, out)
        return out, comm.transport.ledger.snapshot()

    outcome = run_local(p, body)
    assert not outcome.failures
    dense = np.empty((n,) * 3, dtype=np.complex128)
    for rank, (block, _wire) in outcome.results.items():
        where = layout.input_slices if roundtrip else layout.spectrum_slices
        dense[where(rank)] = block
    return dense, alltoall_rounds([outcome.results[r][1] for r in range(p)])


class TestSlabFFT:
    def test_forward_matches_numpy(self, rng):
        field = rng.standard_normal((16, 16, 16))
        # after forward, rank r holds the y-slab [r*n/p, (r+1)*n/p)
        spec, _rounds = run_transform(field, 4, "slab")
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-9)

    def test_roundtrip(self, rng):
        field = rng.standard_normal((8, 8, 8))
        back, rounds = run_transform(field, 2, "slab", roundtrip=True)
        np.testing.assert_allclose(np.real(back), field, atol=1e-9)
        assert rounds == 2

    def test_one_alltoall_per_transform(self, rng):
        _spec, rounds = run_transform(rng.standard_normal((16, 16, 16)), 4, "slab")
        assert rounds == 1

    def test_p_must_divide_n(self):
        with pytest.raises(ConfigurationError):
            FftGrid.for_ranks(10, 3, "slab")


class TestPencilFFT:
    def test_forward_matches_numpy(self, rng):
        field = rng.standard_normal((8, 8, 8))
        spec, _rounds = run_transform(field, 4, "pencil", grid=(2, 2))
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-9)

    def test_two_alltoalls_per_transform(self, rng):
        _spec, rounds = run_transform(rng.standard_normal((8, 8, 8)), 4, "pencil")
        assert rounds == 2

    def test_asymmetric_grid(self, rng):
        field = rng.standard_normal((8, 8, 8))
        spec, rounds = run_transform(field, 2, "pencil", grid=(1, 2))
        np.testing.assert_allclose(spec, np.fft.fftn(field), atol=1e-9)
        # a one-rank column still takes its round: peers get empty frames
        assert rounds == 2

    def test_grid_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            FftGrid.for_ranks(8, 4, "pencil", grid=(3, 2))


def transpose_payload_bytes(n, p, mode):
    """Closed-form value bytes one convolution's transposes put on the
    wire, summed over ranks: every swap moves the ``(g-1)/g`` share of
    each complex block that leaves its row or column of ``g`` ranks."""
    grid = FftGrid.for_ranks(n, p, mode)
    px, py = grid.px, grid.py
    column = 2 * (px - 1) / px
    row = 2 * (py - 1) / py if mode == "pencil" else 0.0
    return round(16 * n**3 * (row + column))


class TestTraditionalConvolution:
    @pytest.mark.parametrize("mode,expected_rounds", [("slab", 2), ("pencil", 4)])
    def test_exact_and_round_count(self, mode, expected_rounds, rng):
        """Exact against the dense reference, and exact wire accounting:
        the rounds every rank's ledger reads, and the data bytes as the
        closed-form transpose payload plus one header per data frame."""
        n = 16
        field = rng.standard_normal((n, n, n))
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        exact = reference_convolve(field, spec)
        for p in ([2, 4] if mode == "slab" else [2, 4, 8]):
            res = traditional_convolve(field, spec, p, mode=mode)
            np.testing.assert_allclose(res.result, exact, rtol=0, atol=1e-10)
            assert res.alltoall_rounds == expected_rounds
            frames = expected_rounds * p * (p - 1)
            assert sum(
                w["counters"]["sent.data.frames"] for w in res.wire
            ) == frames
            assert res.sent_bytes() == (
                transpose_payload_bytes(n, p, mode) + HEADER_BYTES * frames
            )
            # the input blocks are scattered, the kernel never travels
            assert res.sent_bytes("bcast") == (p - 1) * (HEADER_BYTES + 8 * n**3 // p)

    def test_pencil_payload_closed_form(self):
        """The pencil formula 16 n^3 [2(py-1)/py + 2(px-1)/px] at the
        Fig 1 grid (n = 32, 2 x 2): 1 MiB of values."""
        assert transpose_payload_bytes(32, 4, "pencil") == 1_048_576

    def test_ledger_time_is_eq2_over_sent_frames(self, rng):
        """The alpha-beta time read off a rank's ledger is Eq 2 summed
        over the frames it sent: 4 rounds x (P-1) frames at n = 16, P = 4,
        half of a 16 KiB-per-rank complex block out per swap."""
        n, p = 16, 4
        link = Link(alpha_s=1e-6, bandwidth_bytes_per_s=1e9)
        res = traditional_convolve(
            rng.standard_normal((n, n, n)),
            GaussianKernel(n=n, sigma=1.5).spectrum(),
            p,
        )
        frames = 4 * (p - 1)
        rank_bytes = 4 * (16 * n**3 // p) // 2 + HEADER_BYTES * frames
        for wire in res.wire:
            assert link.ledger_time(wire, "data") == pytest.approx(
                frames * 1e-6 + rank_bytes * 1e-9, rel=1e-12
            )

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            traditional_convolve(np.zeros((8,) * 3), np.ones((8,) * 3), 2, mode="magic")


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
