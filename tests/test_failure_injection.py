"""Failure-injection tests: OOM mid-pipeline, rank death mid-iteration,
misconfigured plans — the paths a production run would hit."""

import time
from collections import Counter

import numpy as np
import pytest

from repro.cluster.memory import MemoryTracker
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.dist.collectives import Communicator
from repro.dist.runtime import run_local
from repro.dist.traditional import FftGrid, convolve_rank, fftn, traditional_convolve
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
    """The one thread harness (``run_local``) that the rank loop and the
    traditional baseline both run on: a rank that fails is recorded, and
    its peers learn it from its ``BYE`` at once, not from a timeout."""

    N, P = 8, 4
    TIMEOUT_S = 20.0

    def _run(self, body):
        t0 = time.monotonic()
        outcome = run_local(self.P, body, recv_timeout_s=self.TIMEOUT_S)
        return outcome, time.monotonic() - t0

    def test_dead_rank_aborts_distributed_run(self):
        """A rank crashed on the fabric as a transform starts fails the
        job: it is an injected crash, and every peer fails with
        RankFailure."""
        grid = FftGrid.for_ranks(self.N, self.P, "pencil")
        field = np.ones((self.N,) * 3)

        def body(comm, abort):
            if comm.rank == 2:
                abort()
            return fftn(comm, grid, field[grid.input_slices(comm.rank)])

        outcome, elapsed = self._run(body)
        assert outcome.failures[2] == "injected crash"
        assert set(outcome.failures) == set(range(self.P))
        assert all("RankFailure" in outcome.failures[r] for r in (0, 1, 3))
        assert elapsed < self.TIMEOUT_S / 4

    def test_death_between_phases_detected(self):
        """A rank that fails after one bulk-synchronous phase completed
        fails the next collective, not the finished one."""
        first = {}

        def body(comm, _abort):
            first[comm.rank] = comm.alltoall([bytes([comm.rank])] * comm.size)
            if comm.rank == 0:
                raise RuntimeError("rank 0 fails between phases")
            return comm.alltoall([b""] * comm.size)

        outcome, elapsed = self._run(body)
        assert all(first[r] == [bytes([s]) for s in range(self.P)] for r in first)
        assert len(first) == self.P
        assert "rank 0 fails between phases" in outcome.failures[0]
        assert all("said BYE" in outcome.failures[r] for r in range(1, self.P))
        assert elapsed < self.TIMEOUT_S / 4

    def test_traditional_conv_also_aborts(self, rng, monkeypatch):
        """A rank that raises mid-transpose of the traditional convolution
        ends the job with that rank in the failures; its peers fail with
        RankFailure well inside their receive timeout."""
        real_alltoall = Communicator.alltoall
        spec = GaussianKernel(n=self.N, sigma=1.0).spectrum()
        field = rng.standard_normal((self.N,) * 3)
        calls = Counter()

        def alltoall(comm, payloads, *args, **kwargs):
            calls[comm.rank] += 1
            if comm.rank == 1 and calls[1] == 2:
                raise RuntimeError("rank 1 dies mid-transpose")
            return real_alltoall(comm, payloads, *args, **kwargs)

        monkeypatch.setattr(Communicator, "alltoall", alltoall)
        grid = FftGrid.for_ranks(self.N, self.P, "pencil")

        def body(comm, _abort):
            return convolve_rank(comm, grid, field if comm.rank == 0 else None, spec)

        outcome, elapsed = self._run(body)
        assert "rank 1 dies mid-transpose" in outcome.failures[1]
        assert all(
            outcome.failures[r].startswith("RankFailure") for r in (0, 2, 3)
        )
        assert elapsed < self.TIMEOUT_S / 4
        calls.clear()
        with pytest.raises(RankFailure, match="rank 1 dies mid-transpose"):
            traditional_convolve(field, spec, self.P)
