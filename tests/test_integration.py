"""Integration tests: cross-module behaviour of the full system.

These exercise the paths a downstream user actually runs: end-to-end
convolution across kernels, backends and policies; distributed equivalence;
Poisson solves through the low-communication machinery; and MASSIF
Algorithm 1 vs 2 agreement.
"""

import numpy as np
import pytest

from repro.cluster.memory import MemoryTracker
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.core.reference import reference_convolve
from repro.dist.launcher import dist_run
from repro.dist.worker import DistConfig
from repro.fft.pruned_plan import PrunedPlan
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.poisson import PoissonKernel
from repro.serve import ConvolutionServer, ServerConfig
from repro.util.arrays import l2_relative_error
from repro.util.clock import ManualClock


class TestEndToEndConvolution:
    def test_full_grid_lossless(self, rng):
        n, k = 16, 4
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        field = rng.standard_normal((n, n, n))
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(1), batch=64)
        res = pipe.run_serial(field)
        np.testing.assert_allclose(
            res.approx, reference_convolve(field, spec), atol=1e-8
        )

    def test_poisson_solve_through_pipeline(self):
        """Solve -lap u = f via the low-communication pipeline: the second
        Green's-function use case (paper Eq 5)."""
        n, k = 32, 8
        pk = PoissonKernel(n=n, length=1.0)
        x = np.arange(n) / n
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        f = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
        pipe = LowCommConvolution3D(
            n, k, pk.spectrum(), SamplingPolicy.flat_rate(2), batch=256
        )
        res = pipe.run_serial(f)
        exact = pk.solve(f)
        assert l2_relative_error(res.approx, exact) < 0.05

    def test_error_monotone_in_rate(self):
        """Pipeline error grows with the exterior downsampling rate."""
        n, k = 32, 8
        spec = GaussianKernel(n=n, sigma=2.0).spectrum()
        field = np.zeros((n, n, n))
        field[8:24, 8:24, 8:24] = 1.0
        exact = reference_convolve(field, spec)
        errs = []
        for r in (1, 2, 4):
            pipe = LowCommConvolution3D(
                n, k, spec, SamplingPolicy.flat_rate(r), batch=256
            )
            errs.append(l2_relative_error(pipe.run_serial(field).approx, exact))
        assert errs[0] <= errs[1] <= errs[2]
        assert errs[0] < 1e-9

    def test_compression_reduces_bytes_monotonically(self):
        n, k = 32, 8
        spec = GaussianKernel(n=n, sigma=2.0).spectrum()
        field = np.zeros((n, n, n))
        field[8:16, 8:16, 8:16] = 1.0
        sizes = []
        for r in (1, 2, 4):
            pipe = LowCommConvolution3D(
                n, k, spec, SamplingPolicy.flat_rate(r), batch=256
            )
            sizes.append(pipe.run_serial(field).compressed_bytes)
        assert sizes[0] > sizes[1] > sizes[2]


class TestDistributedEquivalence:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_rank_count_invariance(self, p, rng):
        """The distributed result is independent of worker count."""
        n, k = 16, 4
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        field = rng.standard_normal((n, n, n))
        serial = LowCommConvolution3D(
            n, k, spec, SamplingPolicy.flat_rate(2), batch=64
        ).run_serial(field).approx
        config = DistConfig(
            n=n, k=k, sigma=1.2, policy="flat:2", batch=64, num_ranks=p,
            transport="local",
        )
        assert np.array_equal(dist_run(config, field=field).approx, serial)


class TestMemoryRealism:
    def test_peak_scales_with_k(self, rng):
        """Bigger sub-domains cost more peak memory — the Table 1/2 story
        reproduced with real allocations."""
        n = 16
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        peaks = []
        for k in (4, 8):
            mt = MemoryTracker()
            pipe = LowCommConvolution3D(
                n, k, spec, SamplingPolicy.flat_rate(2), batch=64, memory=mt
            )
            field = np.zeros((n, n, n))
            field[:k, :k, :k] = 1.0
            pipe.run_serial(field)
            peaks.append(mt.peak_bytes)
        assert peaks[1] > peaks[0]

    def test_compressed_pipeline_peak_below_dense(self, rng):
        """Our working set stays under the dense 16 B * N^3 spectrum cost the
        traditional method needs just for its in-flight transform."""
        n, k = 32, 4
        spec = GaussianKernel(n=n, sigma=1.5).spectrum()
        mt = MemoryTracker()
        pipe = LowCommConvolution3D(
            n, k, spec, SamplingPolicy.flat_rate(4), batch=64, memory=mt
        )
        field = np.zeros((n, n, n))
        field[:k, :k, :k] = 1.0
        pipe.run_serial(field)
        assert mt.peak_bytes < 16 * n**3


class TestFftStrategyAcrossRuntimes:
    """n=64 / k=16 / ``flat:2`` retains 42 of 64 coordinates per axis, past
    the plan's crossover: the z and y inverse stages run as inverse FFT +
    take.  The smaller shapes every other cross-runtime test uses stay on
    the GEMM, so this is the case that runs the FFT strategy in every
    runtime and holds the two contracts there: bitwise identity with
    ``run_serial``, and the paper's <= 3 % on a smooth field."""

    N, K, SIGMA = 64, 16, 2.0
    POLICY = SamplingPolicy.flat_rate(2)

    @pytest.fixture(scope="class")
    def solved(self):
        n, k = self.N, self.K
        spectrum = GaussianKernel(n=n, sigma=self.SIGMA).spectrum()
        rng = np.random.default_rng(64)
        fields = []
        for _ in range(2):
            smooth = reference_convolve(
                rng.standard_normal((n, n, n)),
                GaussianKernel(n=n, sigma=3.0).spectrum(),
            )
            field = np.zeros((n, n, n))
            q = n // 4  # the central half-cube: 8 of 64 sub-domains active
            field[q:-q, q:-q, q:-q] = smooth[q:-q, q:-q, q:-q]
            fields.append(field / np.abs(field).max())
        pipe = LowCommConvolution3D(n, k, spectrum, self.POLICY)
        return spectrum, fields, [pipe.run_serial(f) for f in fields]

    def test_shape_is_on_the_fft_strategy(self):
        pattern = self.POLICY.pattern_for(self.N, self.K, (16, 32, 16))
        sets = [pattern.axis_coordinate_set(axis) for axis in range(3)]
        assert [len(s) for s in sets] == [42, 42, 42]
        plan = PrunedPlan(self.N, *sets)
        assert plan.strategy == ("fft", "fft")

    def test_serial_within_paper_error(self, solved):
        spectrum, fields, serial = solved
        for field, result in zip(fields, serial):
            assert result.num_subdomains == 8
            exact = reference_convolve(field, spectrum)
            assert l2_relative_error(result.approx, exact) < 0.03

    @pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "streamed"])
    def test_dist_run_bitwise(self, solved, overlap):
        spectrum, fields, serial = solved
        config = DistConfig(
            n=self.N, k=self.K, sigma=self.SIGMA, policy="flat:2",
            num_ranks=2, transport="local", overlap=overlap,
        )
        report = dist_run(config, field=fields[0], spectrum=spectrum)
        assert report.failed_ranks == []
        assert np.array_equal(report.approx, serial[0].approx)

    def test_served_batch_bitwise(self, solved):
        spectrum, fields, serial = solved
        server = ConvolutionServer(
            ServerConfig(
                n=self.N, k=self.K, max_batch_size=2, max_wait_s=0.05,
                default_policy=self.POLICY,
            ),
            clock=ManualClock(),
        )
        server.register_kernel("g", spectrum)
        handles = [server.submit(f, kernel="g") for f in fields]
        server.drain()
        for handle, expected in zip(handles, serial):
            assert np.array_equal(handle.result().approx, expected.approx)
