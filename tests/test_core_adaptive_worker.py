"""Tests for content-adaptive decomposition and ranks as a worker pool
(device memory budget, per-rank load, makespan)."""

import numpy as np
import pytest

from repro.cluster.cost import makespan, pruned_conv_time
from repro.cluster.device import V100_32GB
from repro.cluster.memory import MemoryTracker
from repro.cluster.network import Link
from repro.core.accumulate import accumulate_global
from repro.core.adaptive import (
    AdaptiveConvolution,
    decompose_by_content,
)
from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.core.local_conv import LocalConvolution
from repro.core.pipeline import LowCommConvolution3D
from repro.core import policy as policy_module
from repro.core.policy import SamplingPolicy
from repro.core.reference import reference_convolve
from repro.dist import DistConfig, dist_run
from repro.errors import ConfigurationError, DeviceMemoryError
from repro.kernels.gaussian import GaussianKernel
from repro.util.arrays import l2_relative_error
from repro.util.lru import WeightedLRU


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


class TestAdaptiveOnConvolveChunks:
    """AdaptiveConvolution runs on the pipeline's ``convolve_chunks`` and
    accumulation; the per-block loop it replaced is the oracle."""

    N = 32

    @staticmethod
    def _per_block_loop(n, spectrum, policy, batch, field, subs):
        local = LocalConvolution(n, spectrum, policy, batch)
        fields = [
            local.convolve(
                field[sub.slices()],
                sub.corner,
                pattern=policy.pattern_for(n, sub.size, sub.corner),
            )
            for sub in subs
        ]
        return accumulate_global(fields)

    @pytest.mark.parametrize(
        "policy",
        [SamplingPolicy.flat_rate(2), SamplingPolicy()],
        ids=["flat", "banded"],
    )
    def test_run_is_bitwise_the_per_block_loop(self, rng, policy):
        n = self.N
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        field = np.zeros((n, n, n))
        field[:16, :16, :16] = 1.0
        field[20:22, 20:22, 20:22] = rng.standard_normal((2, 2, 2))
        field[30, 2, 9] = 3.0
        res = AdaptiveConvolution(n, spec, policy, k_max=8, batch=256).run(field)
        assert len(res.subdomains) == 10
        oracle = self._per_block_loop(n, spec, policy, 256, field, res.subdomains)
        assert np.array_equal(res.approx, oracle)

    def test_mixed_sizes_share_one_pattern_cache(self, rng, monkeypatch):
        """``decompose_by_content`` cuts one block size per run (the largest
        halving of n that is <= k_max), so mixed sizes reach the shared
        table through ``convolve_chunks``: a 16-block beside 8-blocks, and
        an 8-block at the 16-block's corner."""
        table = WeightedLRU(max_weight=1 << 30)
        monkeypatch.setattr(policy_module, "_PATTERNS", table)
        n = self.N
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        policy = SamplingPolicy.flat_rate(2)
        conv = AdaptiveConvolution(n, spec, policy, k_max=8, batch=256)
        subs = [
            SubDomain(0, (0, 0, 0), 16),
            SubDomain(1, (16, 0, 0), 8),
            SubDomain(2, (24, 24, 24), 8),
        ]
        field = np.zeros((n, n, n))
        for sub in subs:
            field[sub.slices()] = rng.standard_normal((sub.size,) * 3)
        pipeline = conv.pipeline
        per_domain = list(
            pipeline.convolve_chunks((sub, field[sub.slices()]) for sub in subs)
        )
        oracle = self._per_block_loop(n, spec, policy, 256, field, subs)
        assert np.array_equal(pipeline.accumulate(per_domain), oracle)
        small = SubDomain(3, (0, 0, 0), 8)
        list(pipeline.convolve_chunks([(small, field[small.slices()])]))
        assert {key[1:] for key in table._entries} == {
            (n, sub.size, sub.corner) for sub in subs + [small]
        }

    def test_regular_subdomains_build_one_pattern_per_corner(self, rng, monkeypatch):
        """Every instance through one pipeline reuses one pattern per active
        corner from the process-wide table (what the serving executor's warm
        engine amortizes)."""
        table = WeightedLRU(max_weight=1 << 30)
        monkeypatch.setattr(policy_module, "_PATTERNS", table)
        n, k = 16, 4
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        policy = SamplingPolicy.flat_rate(2)
        pipeline = LowCommConvolution3D(n, k, spec, policy, batch=64)
        runs = []
        for i in range(3):
            field = np.zeros((n, n, n))
            field[i : i + 8, 2:10, 4:12] = rng.standard_normal((8, 8, 8))
            runs.append(pipeline.run_serial(field))
        corners = {sub.corner for run in runs for sub, _f in run.per_domain}
        assert table.misses == len(table) == len(corners)
        for run in runs:
            for sub, compressed in run.per_domain:
                assert compressed.pattern is policy.pattern_for(n, k, sub.corner)


class TestWorkerPool:
    """Ranks as a worker pool: each batch-processes its share of the
    decomposition's chunks, the makespan model (:func:`makespan`) prices
    the chunk counts the ranks report, and every local convolution runs
    under a device memory budget."""

    N, K = 16, 4

    def _field(self, count):
        """A field whose first ``count`` sub-domains are active."""
        rng = np.random.default_rng(0)
        d = DomainDecomposition(self.N, self.K)
        field = np.zeros((self.N,) * 3)
        for i in range(count):
            field[d.subdomain(i).slices()] = rng.standard_normal((self.K,) * 3)
        return field

    def _ranks(self, count, ranks):
        config = DistConfig(
            n=self.N, k=self.K, sigma=1.2, policy="flat:2", batch=64,
            num_ranks=ranks, transport="local",
        )
        report = dist_run(config, field=self._field(count))
        return report, [report.rank_results[r] for r in range(ranks)]

    def _chunk_time(self):
        return pruned_conv_time(V100_32GB, self.N, self.K, 2.0, batch=64)

    def _compute_makespan(self, results):
        return makespan(
            [r.num_chunks for r in results], self._chunk_time(), [0.0] * len(results)
        )

    def test_all_chunks_processed(self):
        _report, results = self._ranks(6, 3)
        assert sum(r.num_chunks for r in results) == 6

    def test_load_balanced(self):
        _report, results = self._ranks(7, 4)
        assert [r.num_chunks for r in results] == [2, 2, 2, 1]
        assert self._compute_makespan(results) == pytest.approx(2 * self._chunk_time())

    def test_makespan_shrinks_with_more_workers(self):
        _r1, one = self._ranks(8, 1)
        _report, four = self._ranks(8, 4)
        m1, m4 = self._compute_makespan(one), self._compute_makespan(four)
        assert m4 == pytest.approx(m1 / 4, rel=1e-12)
        # each rank's exchange, read off its own ledger, adds on top
        link = Link()
        exchange = [link.ledger_time(r.wire, "exchange") for r in four]
        assert all(t > 0 for t in exchange)
        full = makespan([r.num_chunks for r in four], self._chunk_time(), exchange)
        assert m4 < full <= m4 + max(exchange)
        assert full < m1

    def test_results_match_direct_pipeline(self):
        report, _results = self._ranks(4, 2)
        spec = GaussianKernel(n=self.N, sigma=1.2).spectrum()
        lc = LocalConvolution(self.N, spec, SamplingPolicy.flat_rate(2), batch=64)
        d = DomainDecomposition(self.N, self.K)
        field = self._field(4)
        direct = [
            lc.convolve(d.extract(field, d.subdomain(i)), d.subdomain(i).corner)
            for i in range(4)
        ]
        assert np.array_equal(report.approx, accumulate_global(direct))

    def test_memory_enforced(self):
        """Every local convolution is charged to the device's memory: a
        device one byte short of a chunk's working set cannot run it."""
        field = self._field(2)
        spec = GaussianKernel(n=self.N, sigma=1.2).spectrum()

        def run(capacity, name=V100_32GB.name):
            memory = MemoryTracker(capacity_bytes=capacity, device_name=name)
            LowCommConvolution3D(
                self.N, self.K, spec, SamplingPolicy.flat_rate(2), batch=64,
                memory=memory,
            ).run_serial(field)
            return memory

        memory = run(V100_32GB.memory_bytes)
        peak = memory.peak_bytes
        assert peak > 0 and memory.current_bytes == 0
        with pytest.raises(DeviceMemoryError, match="too-small"):
            run(peak - 1, name="too-small")
        run(peak)  # no raise

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 1 rank"):
            DistConfig(num_ranks=0)
        with pytest.raises(ConfigurationError, match=">= 1 rank"):
            makespan([], self._chunk_time(), [])
