"""Tests for accumulation and the end-to-end pipeline."""

import numpy as np
import pytest

from repro.core.accumulate import accumulate_global
from repro.core.decomposition import DomainDecomposition
from repro.core.local_conv import LocalConvolution
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy, parse_policy
from repro.core.reference import reference_convolve
from repro.dist.collectives import Communicator
from repro.dist.launcher import assemble_blocks, dist_run, expected_exchange_value_bytes
from repro.dist.ledger import CATEGORY_DATA, CATEGORY_EXCHANGE, alltoall_rounds
from repro.dist.transport import LocalFabric
from repro.dist.worker import DistConfig, RankResult
from repro.errors import CommunicationError, ConfigurationError, ShapeError
from repro.fft import pruned_plan
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

    def test_warm_solve_over_many_patterns_misses_no_plan(self, rng):
        """More distinct patterns than the old 64-plan bound, every fifth
        sub-domain of n=32 / k=4 ``banded``: a warm solve, and a second
        pipeline of the shape, build no plan."""
        n, k = 32, 4
        spec = GaussianKernel(n=n, sigma=2.0).spectrum()
        policy = parse_policy("banded")
        pipe = LowCommConvolution3D(n, k, spec, policy)
        chunks = [
            (sub, rng.standard_normal((k, k, k)))
            for sub in list(pipe.decomposition)[::5]
        ]
        cold = [f.values for _s, f in pipe.convolve_chunks(chunks)]
        built = pruned_plan.PLANS.misses
        assert built == len(pruned_plan.PLANS) > 64
        for again in (pipe, LowCommConvolution3D(n, k, spec, policy)):
            warm = [f.values for _s, f in again.convolve_chunks(chunks)]
            assert pruned_plan.PLANS.misses == built
            assert all(np.array_equal(a, b) for a, b in zip(cold, warm))


def _dist(setup, ranks, rate=2):
    """``dist_run`` on loopback ranks, configured like ``setup``'s pipeline
    (the kernel evaluated rank-side is the same Gaussian)."""
    n, k, _spec, field = setup
    config = DistConfig(
        n=n, k=k, sigma=1.5, policy=f"flat:{rate}", batch=64, num_ranks=ranks,
        transport="local",
    )
    return dist_run(config, field=field)


def _serial(setup, rate=2):
    n, k, spec, field = setup
    return LowCommConvolution3D(
        n, k, spec, SamplingPolicy.flat_rate(rate), batch=64
    ).run_serial(field)


def _wires(report):
    return [report.rank_results[r].wire for r in range(report.config.num_ranks)]


class TestPipelineDistributed:
    """Real loopback ranks: bitwise ``run_serial``, with the traffic read
    off their wire ledgers."""

    def test_matches_serial(self, setup32):
        assert np.array_equal(_dist(setup32, 4).approx, _serial(setup32).approx)

    def test_exactly_one_collective_round(self, setup32):
        """The Fig 1(b) claim: a single sparse exchange, no all-to-alls."""
        wires = _wires(_dist(setup32, 4))
        assert alltoall_rounds(wires, CATEGORY_EXCHANGE) == 1
        assert alltoall_rounds(wires, CATEGORY_DATA) == 0

    def test_comm_bytes_less_than_dense(self, setup32):
        n = setup32[0]
        rep = _dist(setup32, 4, rate=4)
        dense_exchange = 8 * n**3 * 2  # two all-to-all stages of Eq 1
        assert 0 < rep.exchange_wire_bytes < dense_exchange

    def test_single_rank(self, setup32):
        rep = _dist(setup32, 1)
        assert np.array_equal(rep.approx, _serial(setup32).approx)
        assert rep.exchange_wire_bytes == 0
        assert alltoall_rounds(_wires(rep), CATEGORY_EXCHANGE) == 0

    @pytest.mark.parametrize("policy", ["flat:2", "banded"])
    @pytest.mark.parametrize("ranks", [1, 3, 4])
    def test_accounting_is_exact(self, rng, ranks, policy):
        """Bitwise ``run_serial``, at most one exchange round, and the
        report's Eq 6 allgather count is the exact value-byte count the
        per-destination exchange is held below."""
        n, k = 32, 8
        field = rng.standard_normal((n, n, n))
        field[:, :, :k] = 0.0  # one all-zero slab: 16 of 64 blocks skipped
        config = DistConfig(
            n=n, k=k, policy=policy, num_ranks=ranks, transport="local"
        )
        rep = dist_run(config, field=field)
        serial = LowCommConvolution3D(
            n, k, GaussianKernel(n=n, sigma=2.0).spectrum(), parse_policy(policy)
        ).run_serial(field)
        assert np.array_equal(rep.approx, serial.approx)
        wires = _wires(rep)
        assert alltoall_rounds(wires, CATEGORY_EXCHANGE) == min(1, ranks - 1)
        assert alltoall_rounds(wires, CATEGORY_DATA) == 0
        active = [s.index for s in DomainDecomposition(n, k).active_subdomains(field)]
        assert rep.eq6_value_bytes == expected_exchange_value_bytes(config, active)
        assert rep.predicted_value_bytes <= rep.eq6_value_bytes


class TestAccumulatorDistributed:
    """The two guards of the distributed accumulation step: the exchange's
    participant check and the one block assembler."""

    def test_rank_count_mismatch(self):
        comm = Communicator(LocalFabric(4).endpoint(0), recv_timeout_s=1.0)
        with pytest.raises(CommunicationError, match="one payload per rank"):
            comm.sparse_allgather([b"", b""])

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
