"""Tests for accumulation and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.cluster.comm import SimulatedComm
from repro.core.accumulate import accumulate_global
from repro.core.decomposition import DomainDecomposition
from repro.core.distributed_runner import DistributedLowCommConvolution
from repro.core.local_conv import LocalConvolution
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy, parse_policy
from repro.core.reference import reference_convolve
from repro.dist.launcher import assemble_blocks, expected_exchange_value_bytes
from repro.dist.worker import DistConfig, RankResult
from repro.errors import CommunicationError, ConfigurationError, ShapeError
from repro.kernels.gaussian import GaussianKernel
from repro.util.arrays import l2_relative_error


@pytest.fixture
def setup32(rng):
    n, k = 32, 8
    spec = GaussianKernel(n=n, sigma=1.5).spectrum()
    field = np.zeros((n, n, n))
    field[8:24, 8:24, 8:24] = 1.0
    return n, k, spec, field


class TestAccumulateGlobal:
    def test_sums_reconstructions(self, setup32):
        n, k, spec, field = setup32
        lc = LocalConvolution(n, spec, SamplingPolicy.flat_rate(1), batch=64)
        d = DomainDecomposition(n, k)
        fields = [
            lc.convolve(d.extract(field, s), s.corner)
            for s in d
            if np.any(d.extract(field, s))
        ]
        total = accumulate_global(fields)
        exact = reference_convolve(field, spec)
        np.testing.assert_allclose(total, exact, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            accumulate_global([])


class TestPipelineSerial:
    def test_lossless_r1_matches_reference(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(1), batch=64)
        res = pipe.run_serial(field)
        exact = reference_convolve(field, spec)
        np.testing.assert_allclose(res.approx, exact, atol=1e-9)

    def test_lossy_error_small_for_smooth_input(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2), batch=64)
        res = pipe.run_serial(field)
        exact = reference_convolve(field, spec)
        assert l2_relative_error(res.approx, exact) < 0.05

    def test_zero_chunks_skipped(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2), batch=64)
        res = pipe.run_serial(field)
        # only the 8 central sub-domains are non-zero
        assert res.num_subdomains == 8

    def test_zero_field(self, setup32):
        n, k, spec, _ = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2))
        res = pipe.run_serial(np.zeros((n, n, n)))
        assert res.num_subdomains == 0
        assert np.all(res.approx == 0)

    def test_result_statistics(self, setup32):
        n, k, spec, field = setup32
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2), batch=64)
        res = pipe.run_serial(field)
        assert res.total_samples > 0
        assert res.compressed_bytes > 0
        assert res.compression_ratio > 1
        assert res.elapsed_s > 0
        assert len(res.per_domain) == res.num_subdomains

    def test_shape_check(self, setup32):
        n, k, spec, _ = setup32
        pipe = LowCommConvolution3D(n, k, spec)
        with pytest.raises(ShapeError):
            pipe.run_serial(np.zeros((8, 8, 8)))


def _runner(setup, rate=2):
    n, k, spec, field = setup
    return DistributedLowCommConvolution(
        n, k, spec, SamplingPolicy.flat_rate(rate), batch=64
    )


class TestPipelineDistributed:
    """The simulated cluster books traffic on a finished ``run_serial``."""

    def test_matches_serial(self, setup32):
        field = setup32[3]
        runner = _runner(setup32)
        serial = runner.pipeline.run_serial(field)
        assert np.array_equal(runner.run(field, 4).approx, serial.approx)

    def test_exactly_one_collective_round(self, setup32):
        """The Fig 1(b) claim: a single sparse exchange, no all-to-alls."""
        rep = _runner(setup32).run(setup32[3], 4)
        assert rep.comm_rounds == 1
        assert rep.alltoall_rounds == 0

    def test_comm_bytes_less_than_dense(self, setup32):
        n, field = setup32[0], setup32[3]
        rep = _runner(setup32, rate=4).run(field, 4)
        dense_exchange = 8 * n**3 * 2  # two all-to-all stages of Eq 1
        assert 0 < rep.comm_bytes < dense_exchange

    def test_single_rank(self, setup32):
        field = setup32[3]
        runner = _runner(setup32)
        rep = runner.run(field, 1)
        assert np.array_equal(rep.approx, runner.pipeline.run_serial(field).approx)
        assert rep.comm_bytes == 0

    @pytest.mark.parametrize("policy", ["flat:2", "banded"])
    @pytest.mark.parametrize("ranks", [1, 3, 4])
    def test_accounting_is_exact(self, rng, ranks, policy):
        """Bitwise ``run_serial``, one allgather whose ledger bytes are the
        exact Eq 6 value-byte count the real transports are checked against."""
        n, k = 32, 8
        field = rng.standard_normal((n, n, n))
        field[:, :, :k] = 0.0  # one all-zero slab: 16 of 64 blocks skipped
        runner = DistributedLowCommConvolution(
            n, k, GaussianKernel(n=n, sigma=2.0).spectrum(), parse_policy(policy)
        )
        rep = runner.run(field, ranks)
        assert np.array_equal(rep.approx, runner.pipeline.run_serial(field).approx)
        assert (rep.comm_rounds, rep.alltoall_rounds) == (1, 0)
        config = DistConfig(n=n, k=k, policy=policy, num_ranks=ranks)
        assert rep.comm_bytes == expected_exchange_value_bytes(config, field)


class TestAccumulatorDistributed:
    """The two guards of the distributed accumulation step: the simulated
    communicator's participant check and the one block assembler."""

    def test_rank_count_mismatch(self):
        with pytest.raises(CommunicationError, match="one entry per rank"):
            SimulatedComm(4).allgather([np.zeros(1), np.zeros(1)])

    def test_assemble_covers_grid(self, setup32):
        n, k = setup32[:2]
        d = DomainDecomposition(n, k)
        results = {
            rank: RankResult(
                rank=rank,
                blocks={s.index: np.full((k, k, k), float(s.index)) for s in subs},
                num_chunks=len(subs),
                total_samples=0,
                compressed_bytes=0,
                exchange_payload_bytes=0,
                compute_s=0.0,
                exchange_s=0.0,
            )
            for rank, subs in enumerate(d.assign_round_robin(3))
        }
        out = assemble_blocks(DistConfig(n=n, k=k, num_ranks=3), results)
        for s in d:
            assert (out[s.slices()] == s.index).all()
        assert not any(r.blocks for r in results.values())  # moved, not copied
