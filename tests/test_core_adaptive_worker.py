"""Tests for content-adaptive decomposition and the simulated runner's
worker-pool model (device memory budget, per-rank load, makespan)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.cost import pruned_conv_time
from repro.cluster.device import V100_32GB
from repro.core.accumulate import accumulate_global
from repro.core.adaptive import (
    AdaptiveConvolution,
    decompose_by_content,
)
from repro.core.decomposition import DomainDecomposition
from repro.core.distributed_runner import DistributedLowCommConvolution
from repro.core.local_conv import LocalConvolution
from repro.core.policy import SamplingPolicy
from repro.core.reference import reference_convolve
from repro.errors import ConfigurationError, DeviceMemoryError
from repro.kernels.gaussian import GaussianKernel
from repro.util.arrays import l2_relative_error


class TestDecomposeByContent:
    def test_zero_field_empty(self):
        assert decompose_by_content(np.zeros((16, 16, 16)), k_max=4) == []

    def test_dense_field_tiles_fully(self, rng):
        field = rng.standard_normal((16, 16, 16)) + 10.0  # nowhere zero
        subs = decompose_by_content(field, k_max=4)
        assert sum(s.size**3 for s in subs) == 16**3
        assert all(s.size <= 4 for s in subs)

    def test_sparse_field_skips_zero_blocks(self):
        field = np.zeros((16, 16, 16))
        field[:4, :4, :4] = 1.0
        subs = decompose_by_content(field, k_max=4)
        assert len(subs) == 1
        assert subs[0].corner == (0, 0, 0)
        assert subs[0].size == 4

    def test_mixed_sizes(self):
        """A big homogeneous block stays large only if <= k_max; unsplit
        blocks at different levels emerge from localized support."""
        field = np.zeros((32, 32, 32))
        field[:16, :16, :16] = 1.0  # occupies one 16-cube exactly
        subs = decompose_by_content(field, k_max=16)
        assert len(subs) == 1
        assert subs[0].size == 16

    def test_threshold(self):
        field = np.full((8, 8, 8), 1e-9)
        field[0, 0, 0] = 1.0
        subs = decompose_by_content(field, k_max=2, threshold=1e-6)
        assert len(subs) == 1
        assert subs[0].corner == (0, 0, 0)

    def test_blocks_disjoint(self, rng):
        field = (rng.random((16, 16, 16)) > 0.7).astype(float)
        subs = decompose_by_content(field, k_max=4)
        seen = np.zeros((16, 16, 16), dtype=int)
        for s in subs:
            seen[s.slices()] += 1
        assert seen.max() <= 1

    def test_k_min_validated(self):
        with pytest.raises(ConfigurationError):
            decompose_by_content(np.ones((8, 8, 8)), k_max=2, k_min=4)

    def test_negative_threshold(self):
        with pytest.raises(ConfigurationError):
            decompose_by_content(np.ones((8, 8, 8)), k_max=4, threshold=-1)


class TestAdaptiveConvolution:
    def test_lossless_matches_reference(self, rng):
        n = 16
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        field = np.zeros((n, n, n))
        field[2:6, 2:6, 2:6] = rng.standard_normal((4, 4, 4))
        conv = AdaptiveConvolution(
            n, spec, SamplingPolicy.flat_rate(1), k_max=4, batch=64
        )
        res = conv.run(field)
        np.testing.assert_allclose(
            res.approx, reference_convolve(field, spec), atol=1e-9
        )

    def test_sparse_input_processes_less(self):
        n = 32
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        field = np.zeros((n, n, n))
        field[:8, :8, :8] = 1.0
        conv = AdaptiveConvolution(
            n, spec, SamplingPolicy.flat_rate(2), k_max=8, batch=256
        )
        res = conv.run(field)
        assert res.skipped_volume == n**3 - 8**3
        assert len(res.subdomains) == 1
        exact = reference_convolve(field, spec)
        assert l2_relative_error(res.approx, exact) < 0.05

    def test_fewer_domains_than_regular(self, rng):
        """On sparse input, adaptive processes fewer chunks than the regular
        decomposition at the adaptive k_max."""
        n = 32
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        field = np.zeros((n, n, n))
        field[0:16, 0:16, 0:16] = 1.0
        conv = AdaptiveConvolution(
            n, spec, SamplingPolicy.flat_rate(2), k_max=8, batch=256
        )
        res = conv.run(field)
        regular_count = sum(
            1
            for s in DomainDecomposition(n, 8)
            if np.any(field[s.slices()])
        )
        assert len(res.subdomains) <= regular_count

    def test_empty_input(self):
        n = 16
        spec = GaussianKernel(n=n, sigma=1.0).spectrum()
        conv = AdaptiveConvolution(n, spec, SamplingPolicy.flat_rate(2), k_max=4)
        res = conv.run(np.zeros((n, n, n)))
        assert res.total_samples == 0
        assert np.all(res.approx == 0)


class TestWorkerPool:
    """The simulated runner is the worker pool: P devices batch-processing
    a decomposition's chunks under a memory budget, on a modeled clock."""

    N, K = 16, 4

    def _setup(self, count, device=V100_32GB):
        """A runner plus a field whose first ``count`` sub-domains are active."""
        rng = np.random.default_rng(0)
        d = DomainDecomposition(self.N, self.K)
        field = np.zeros((self.N,) * 3)
        for i in range(count):
            field[d.subdomain(i).slices()] = rng.standard_normal((self.K,) * 3)
        spec = GaussianKernel(n=self.N, sigma=1.2).spectrum()
        runner = DistributedLowCommConvolution(
            self.N, self.K, spec, SamplingPolicy.flat_rate(2), device=device, batch=64
        )
        return runner, field

    def _chunk_time(self):
        return pruned_conv_time(V100_32GB, self.N, self.K, 2.0, batch=64)

    def test_all_chunks_processed(self):
        runner, field = self._setup(6)
        rep = runner.run(field, 3)
        assert sum(rep.per_rank_compute_s) == pytest.approx(6 * self._chunk_time())

    def test_load_balanced(self):
        runner, field = self._setup(7)
        loads = runner.run(field, 4).per_rank_compute_s
        assert max(loads) - min(loads) == pytest.approx(self._chunk_time())

    def test_makespan_shrinks_with_more_workers(self):
        runner, field = self._setup(8)
        m1 = max(runner.run(field, 1).per_rank_compute_s)
        m4 = max(runner.run(field, 4).per_rank_compute_s)
        assert m4 == pytest.approx(m1 / 4, rel=1e-12)

    def test_results_match_direct_pipeline(self):
        runner, field = self._setup(4)
        lc = LocalConvolution(
            self.N, runner.pipeline._kernel_spectrum, runner.policy, batch=64
        )
        d = runner.pipeline.decomposition
        direct = [
            lc.convolve(d.extract(field, d.subdomain(i)), d.subdomain(i).corner)
            for i in range(4)
        ]
        assert np.array_equal(runner.run(field, 2).approx, accumulate_global(direct))

    def test_memory_enforced(self):
        """Every local convolution is charged to the device's memory: a
        device one byte short of a chunk's working set cannot run it."""
        runner, field = self._setup(2)
        runner.run(field, 2)
        peak = runner.pipeline.memory.peak_bytes
        assert peak > 0 and runner.pipeline.memory.current_bytes == 0
        small = replace(V100_32GB, name="too-small", memory_bytes=peak - 1)
        with pytest.raises(DeviceMemoryError, match="too-small"):
            self._setup(2, device=small)[0].run(field, 2)
        exact = replace(V100_32GB, memory_bytes=peak)
        self._setup(2, device=exact)[0].run(field, 2)  # no raise

    def test_zero_workers_rejected(self):
        runner, field = self._setup(1)
        with pytest.raises(ConfigurationError, match=">= 1 rank"):
            runner.run(field, 0)
