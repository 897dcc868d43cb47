"""Tests for the Table-1 cost model and the hyperparameter autotuner."""

import pytest

from repro.cluster.cufft_model import CufftWorkspaceModel
from repro.cluster.device import V100_16GB, V100_32GB
from repro.core.autotune import autotune
from repro.core.costmodel import (
    MemoryFootprint,
    memory_local_fft_bytes,
    memory_traditional_fft_bytes,
    table1_rows,
)
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError

GIB = 2**30


class TestTable1:
    def test_traditional_formula(self):
        assert memory_traditional_fft_bytes(1024) == 8 * 1024**3

    def test_local_formula(self):
        assert memory_local_fft_bytes(1024, 128) == 8 * 1024 * 1024 * 128

    def test_paper_values_exact(self):
        """All eight Table 1 rows reproduce exactly in GiB."""
        expected = {
            (1024, 128): (8, 1),
            (1024, 512): (8, 4),
            (2048, 128): (64, 4),
            (2048, 512): (64, 16),
            (4096, 128): (512, 16),
            (4096, 512): (512, 64),
            (8192, 64): (4096, 32),
            (8192, 128): (4096, 64),
        }
        for n, k, trad, ours in table1_rows():
            exp_trad, exp_ours = expected[(n, k)]
            assert trad == pytest.approx(exp_trad)
            assert ours == pytest.approx(exp_ours)

    def test_ours_always_less(self):
        for _n, _k, trad, ours in table1_rows():
            assert ours < trad

    def test_k_gt_n_rejected(self):
        with pytest.raises(ConfigurationError):
            memory_local_fft_bytes(64, 128)


class TestMemoryFootprint:
    def test_from_flat_rate_components(self):
        fp = MemoryFootprint.from_flat_rate(64, 16, 4)
        assert fp.slab_bytes == 16 * 64 * 64 * 16
        assert fp.total_bytes > fp.slab_bytes

    def test_from_pattern_matches_axis_sets(self):
        pol = SamplingPolicy.flat_rate(4)
        pat = pol.pattern_for(32, 8, (8, 8, 8))
        fp = MemoryFootprint.from_pattern(pat, 8)
        sz = len(pat.axis_coordinate_set(2))
        assert fp.z_sampled_bytes == 16 * 32 * 32 * sz

    def test_total_gib(self):
        fp = MemoryFootprint.from_flat_rate(1024, 128, 8)
        assert fp.total_gib == pytest.approx(fp.total_bytes / GIB)

    def test_many_small_instances_fit(self):
        """The §5.1 claim: small grids batch densely onto one GPU.  The
        dense method holds ``2 * 16 * n^3`` per instance (~16 at 256^3 on
        16 GB); a sub-domain's whole working set is far smaller."""
        n, k = 256, 32
        pattern = SamplingPolicy.flat_rate(8).pattern_for(n, k, (0, 0, 0))
        per_instance = MemoryFootprint.from_pattern(pattern, k).total_bytes
        dense_count = V100_16GB.memory_bytes // (2 * 16 * n**3)
        assert V100_16GB.memory_bytes // per_instance > dense_count


class TestAutotune:
    def test_returns_feasible_best(self):
        res = autotune(
            1024,
            V100_32GB,
            k_candidates=[32, 64, 128, 256],
            r_candidates=[16, 32],
        )
        assert res.best is not None
        assert res.best.fits
        model = CufftWorkspaceModel()
        assert model.fits(1024, res.best.k, res.best.r, V100_32GB.memory_bytes)

    def test_best_is_fastest_feasible(self):
        res = autotune(512, V100_16GB, [16, 32, 64], [8, 16])
        feasible = res.feasible()
        assert res.best.modeled_time_s == min(e.modeled_time_s for e in feasible)

    def test_oversized_k_excluded(self):
        res = autotune(2048, V100_16GB, [512], [16])
        assert res.best is None or res.best.k != 512 or res.best.fits

    def test_error_budget_filters(self):
        res = autotune(
            256,
            V100_32GB,
            [32],
            [4, 8],
            error_oracle=lambda k, r: 0.01 if r == 4 else 0.99,
            error_budget=0.03,
        )
        assert res.best is not None
        assert res.best.r == 4

    def test_no_feasible_returns_none(self):
        res = autotune(
            256,
            V100_32GB,
            [32],
            [4],
            error_oracle=lambda k, r: 1.0,
            error_budget=0.03,
        )
        assert res.best is None
        assert len(res.evaluations) == 1

    def test_k_not_dividing_n_skipped(self):
        res = autotune(100, V100_32GB, [32], [4])
        assert res.best is None
        assert res.evaluations == ()

    def test_empty_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            autotune(256, V100_32GB, [], [4])

    def test_batch_candidates_swept(self):
        res = autotune(256, V100_32GB, [32], [4], batch_candidates=[256, 1024])
        assert len(res.evaluations) == 2
        assert res.best.batch == 1024  # larger batch is faster in the model
