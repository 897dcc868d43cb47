"""Failure-injection tests: OOM mid-pipeline, rank death mid-iteration,
misconfigured plans — the paths a production run would hit."""

import numpy as np
import pytest

from repro.cluster.comm import SimulatedComm
from repro.cluster.memory import MemoryTracker
from repro.core.distributed_runner import book_exchange
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.errors import DeviceMemoryError, RankFailure
from repro.kernels.gaussian import GaussianKernel


class TestOOMMidPipeline:
    def test_pipeline_oom_is_clean(self):
        """An OOM mid-run surfaces as DeviceMemoryError and releases all
        simulated allocations (no leak across the failure)."""
        n, k = 16, 8
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        # capacity passes the sub-cube but fails at the slab
        mt = MemoryTracker(capacity_bytes=16 * n * n * k - 1)
        pipe = LowCommConvolution3D(
            n, k, spec, SamplingPolicy.flat_rate(2), batch=64, memory=mt
        )
        field = np.zeros((n, n, n))
        field[:k, :k, :k] = 1.0
        with pytest.raises(DeviceMemoryError):
            pipe.run_serial(field)
        assert mt.current_bytes == 0

    def test_capacity_boundary_is_tight(self):
        """One byte of extra capacity flips OOM to success (exactness of the
        allocation accounting)."""
        n, k = 16, 4
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        field = np.zeros((n, n, n))
        field[:k, :k, :k] = 1.0

        def peak_with_unbounded():
            mt = MemoryTracker()
            pipe = LowCommConvolution3D(
                n, k, spec, SamplingPolicy.flat_rate(2), batch=64, memory=mt
            )
            pipe.run_serial(field)
            return mt.peak_bytes

        peak = peak_with_unbounded()
        mt_ok = MemoryTracker(capacity_bytes=peak)
        LowCommConvolution3D(
            n, k, spec, SamplingPolicy.flat_rate(2), batch=64, memory=mt_ok
        ).run_serial(field)
        mt_fail = MemoryTracker(capacity_bytes=peak - 1)
        with pytest.raises(DeviceMemoryError):
            LowCommConvolution3D(
                n, k, spec, SamplingPolicy.flat_rate(2), batch=64, memory=mt_fail
            ).run_serial(field)


class TestRankDeath:
    def test_dead_rank_aborts_distributed_run(self):
        n, k = 16, 4
        spec = GaussianKernel(n=n, sigma=1.2).spectrum()
        field = np.zeros((n, n, n))
        field[:k, :k, :k] = 1.0
        pipe = LowCommConvolution3D(n, k, spec, SamplingPolicy.flat_rate(2), batch=64)
        per_domain = pipe.run_serial(field).per_domain
        comm = SimulatedComm(4)
        comm.kill_rank(2)
        with pytest.raises(RankFailure):
            book_exchange(comm, per_domain)
        assert comm.ledger.total_rounds == 0

    def test_death_between_phases_detected(self):
        """A rank that dies after one bulk-synchronous phase completed
        fails the next collective, not the finished one."""
        comm = SimulatedComm(3)
        comm.allgather([np.zeros(1)] * 3)
        comm.kill_rank(0)
        with pytest.raises(RankFailure, match=r"dead ranks \[0\]"):
            comm.allgather([np.zeros(1)] * 3)
        assert comm.ledger.total_rounds == 1

    def test_traditional_conv_also_aborts(self, rng):
        from repro.baselines.traditional_conv import TraditionalDistributedConvolution

        n = 8
        comm = SimulatedComm(4)
        comm.kill_rank(1)
        conv = TraditionalDistributedConvolution(n, comm, mode="pencil")
        spec = GaussianKernel(n=n, sigma=1.0).spectrum()
        with pytest.raises(RankFailure):
            conv.convolve(rng.standard_normal((n, n, n)), spec)
