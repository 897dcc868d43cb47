"""Tests for domain decomposition and sampling policies."""

import numpy as np
import pytest

from repro.core.decomposition import DomainDecomposition
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError, ShapeError
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.poisson import PoissonKernel


class TestDomainDecomposition:
    def test_counts(self):
        d = DomainDecomposition(n=32, k=8)
        assert d.domains_per_axis == 4
        assert d.num_domains == 64
        assert len(d) == 64

    def test_subdomains_tile_grid(self):
        d = DomainDecomposition(n=16, k=4)
        seen = np.zeros((16, 16, 16), dtype=int)
        for sub in d:
            seen[sub.slices()] += 1
        assert (seen == 1).all()

    def test_index_roundtrip(self):
        d = DomainDecomposition(n=16, k=4)
        for sub in d:
            assert d.subdomain(sub.index) == sub

    def test_extract(self, rng):
        d = DomainDecomposition(n=8, k=4)
        field = rng.standard_normal((8, 8, 8))
        sub = d.subdomain(3)
        np.testing.assert_array_equal(d.extract(field, sub), field[sub.slices()])

    def test_extract_shape_check(self):
        d = DomainDecomposition(n=8, k=4)
        with pytest.raises(ShapeError):
            d.extract(np.zeros((4, 4, 4)), d.subdomain(0))

    def test_leading_component_axes(self, rng):
        """A tensor-valued field is cut block by block with its component
        axes kept; a block is active if any component is non-zero."""
        d = DomainDecomposition(n=8, k=4)
        field = np.zeros((2, 3, 8, 8, 8))
        field[1, 2, 5, 1, 6] = 1.0  # one sample, one component
        (active,) = d.active_subdomains(field)
        assert active.corner == (4, 0, 4)
        ((sub, block),) = d.active_blocks(field)
        assert sub == active and block.shape == (2, 3, 4, 4, 4)
        assert block[1, 2, 1, 1, 2] == 1.0 and block.sum() == 1.0
        dense = rng.standard_normal((2, 8, 8, 8))
        block = d.extract(dense, active)
        assert np.array_equal(block[1], d.extract(dense[1], active))
        assert not np.shares_memory(block, dense)
        with pytest.raises(ShapeError):
            d.extract(np.zeros((2, 8, 8, 4)), active)

    def test_round_robin_covers_all(self):
        d = DomainDecomposition(n=16, k=4)
        buckets = d.assign_round_robin(3)
        indices = sorted(s.index for b in buckets for s in b)
        assert indices == list(range(64))
        sizes = [len(b) for b in buckets]
        assert max(sizes) - min(sizes) <= 1

    def test_k_must_divide_n(self):
        with pytest.raises(ConfigurationError):
            DomainDecomposition(n=10, k=3)

    def test_k_gt_n_rejected(self):
        with pytest.raises(ConfigurationError):
            DomainDecomposition(n=4, k=8)

    def test_bad_index(self):
        with pytest.raises(ConfigurationError):
            DomainDecomposition(n=8, k=4).subdomain(99)



class TestSamplingPolicy:
    def test_defaults_are_papers(self):
        pol = SamplingPolicy()
        assert (pol.r_near, pol.r_mid, pol.r_far) == (2, 8, 32)

    def test_flat_rate(self):
        pol = SamplingPolicy.flat_rate(4)
        pat = pol.pattern_for(16, 4, (4, 4, 4))
        rates = {c.rate for c in pat.cells}
        assert rates <= {1, 4}

    def test_banded_pattern_rates(self):
        pol = SamplingPolicy(r_near=2, r_mid=4, r_far=8)
        pat = pol.pattern_for(32, 8, (12, 12, 12))
        assert set(pat.rate_histogram()) <= {1, 2, 4, 8}

    def test_average_rate(self):
        assert SamplingPolicy.flat_rate(8).average_rate() == 8.0
        assert SamplingPolicy(r_mid=4, r_far=16).average_rate() == pytest.approx(8.0)

    def test_rates_must_be_monotone(self):
        with pytest.raises(ConfigurationError):
            SamplingPolicy(r_near=8, r_mid=4, r_far=16)

    def test_from_kernel_sharp_gaussian(self):
        g = GaussianKernel(n=32, sigma=1.0).spatial()
        pol = SamplingPolicy.from_kernel(g, k=8)
        assert pol.r_far == 32  # fast decay permits aggressive far rate

    def test_from_kernel_slow_decay(self):
        g = PoissonKernel(n=32).spatial()
        pol = SamplingPolicy.from_kernel(g, k=8)
        assert pol.r_far <= 32

    def test_from_kernel_tight_budget(self):
        g = GaussianKernel(n=32, sigma=1.0).spatial()
        pol = SamplingPolicy.from_kernel(g, k=8, error_budget=0.005)
        assert pol.r_near == 1

    def test_from_kernel_bad_budget(self):
        g = GaussianKernel(n=16, sigma=1.0).spatial()
        with pytest.raises(ConfigurationError):
            SamplingPolicy.from_kernel(g, k=4, error_budget=2.0)
