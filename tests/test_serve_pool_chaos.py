"""Dist-backed serving under chaos: rank death mid-load, zero fallout.

The acceptance bar for routing :class:`ConvolutionServer` batches onto a
standing :class:`RankPool`, as tests:

- a 4-rank pool-backed server returns results bitwise identical to a
  single-process
  :meth:`~repro.core.pipeline.LowCommConvolution3D.run_serial` on the
  same stream;
- a rank killed mid-batch under live load (via the
  :mod:`tests.chaos` fault schedule) costs **zero failed requests**: the
  pool's checkpoint handoff seats a replacement, the roster generation
  bumps, and the recovered results are still bitwise identical;
- warm steady state shows ``plan_misses == 0`` on the job reports;
- a pool-backed server and an in-process server keep the same request
  books (the server does that bookkeeping once, for every executor),
  and the pool's wire bytes add up to its job reports' totals.

Pools ride the same private ``file://`` rendezvous pattern as the pool
runtime tests — nothing is shared between tests.
"""

import numpy as np
import pytest

from tests.chaos import FaultSchedule, KillAt
from repro.core.pipeline import LowCommConvolution3D
from repro.dist.ledger import sent_wire_bytes
from repro.kernels.gaussian import GaussianKernel
from repro.pool.pool import RankPool
from repro.serve import ConvolutionServer, PoolBackend, ServerConfig
from repro.serve.loadgen import parse_policy

#: the calibrated reference shape shared with the pool/dist tests
N, K, RANKS = 32, 8, 4
POLICY = parse_policy("flat:2")


@pytest.fixture
def pool(tmp_path):
    """A connected 4-rank pool on a private rendezvous."""
    pool = RankPool(f"file://{tmp_path}")
    pool.spawn(RANKS)
    pool.connect(RANKS, timeout_s=30.0)
    yield pool
    pool.down()


def server_config():
    return ServerConfig(
        n=N, k=K, max_batch_size=4, max_wait_s=0.01, default_policy=POLICY
    )


def make_server(pool, job_hook=None):
    backend = PoolBackend(pool, job_hook=job_hook)
    return ConvolutionServer(server_config(), executor=backend), backend


def kernels():
    return {
        "g0": GaussianKernel(n=N, sigma=2.0).spectrum(),
        "g1": GaussianKernel(n=N, sigma=2.5).spectrum(),
    }


def stream(rng, count):
    names = sorted(kernels())
    return [
        (rng.standard_normal((N,) * 3), names[i % len(names)])
        for i in range(count)
    ]


def local_reference(requests):
    """The single-process ``run_serial`` results, one pipeline per kernel."""
    engines = {
        name: LowCommConvolution3D(N, K, spec, POLICY)
        for name, spec in kernels().items()
    }
    return [engines[name].run_serial(field).approx for field, name in requests]


class TestKillMidLoad:
    def test_rank_death_mid_batch_zero_failed_requests(self, pool, rng):
        schedule = FaultSchedule([KillAt(rank=2, job_index=3)])
        server, backend = make_server(pool, job_hook=schedule.job_hook)
        for name, spectrum in kernels().items():
            server.register_kernel(name, spectrum)
        requests = stream(rng, 6)
        handles = [server.submit(f, kernel=kname) for f, kname in requests]
        server.drain()

        # the kill really happened...
        assert schedule.fired and schedule.fired[0][0] == 3
        # ...and cost nothing: every request completed
        assert all(h.exception() is None for h in handles)
        snap = server.snapshot()
        assert snap["counters"].get("requests_failed", 0) == 0
        assert snap["counters"]["requests_completed"] == len(requests)

        # failover evidence: recovery ran, the dead rank was re-seated,
        # and the roster generation moved past the bootstrap generation
        assert snap["counters"]["pool.recoveries"] == 1
        recovered = [r for r in backend.job_reports if r.recovered]
        assert len(recovered) == 1
        # survivors abort their exchange when they see the death, so they
        # land in failed_ranks too — but only the dead rank is re-seated
        assert 2 in recovered[0].failed_ranks
        assert recovered[0].replaced_ranks == [2]
        assert not recovered[0].driver_fallback
        assert recovered[0].generation > 1
        assert pool.roster.size == RANKS

        # the one property that makes failover *transparent*: results are
        # bitwise identical to the single-process batch path
        expected = local_reference(requests)
        for handle, want in zip(handles, expected):
            np.testing.assert_array_equal(handle.result().approx, want)

    def test_pool_keeps_serving_after_recovery(self, pool, rng):
        schedule = FaultSchedule.single(job_index=1, rank=0)
        server, backend = make_server(pool, job_hook=schedule.job_hook)
        server.register_kernel("g0", kernels()["g0"])
        first = server.submit(rng.standard_normal((N,) * 3), kernel="g0")
        server.drain()
        assert first.exception() is None and schedule.fired

        # post-recovery jobs run on the re-formed mesh without another
        # recovery and without tripping the generation fence
        second = server.submit(rng.standard_normal((N,) * 3), kernel="g0")
        server.drain()
        assert second.exception() is None
        snap = server.snapshot()
        assert snap["counters"]["pool.recoveries"] == 1
        assert snap["counters"].get("pool.generation_bumps", 0) == 0
        # the recovered job's report already carries the bumped
        # generation; the follow-up job runs at that same generation
        first_report, last_report = backend.job_reports[0], backend.job_reports[-1]
        assert first_report.recovered and first_report.generation > 1
        assert last_report.generation == first_report.generation
        assert not last_report.recovered and last_report.warm


class TestWarmSteadyState:
    def test_plan_misses_zero_once_warm(self, pool, rng):
        server, backend = make_server(pool)
        server.register_kernel("g0", kernels()["g0"])
        fields = [rng.standard_normal((N,) * 3) for _ in range(4)]
        for field in fields:
            server.submit(field, kernel="g0")
            server.drain()
        reports = list(backend.job_reports)
        assert len(reports) == 4
        # first job may build plans; the warm steady state must not
        assert all(r.plan_misses == 0 for r in reports[1:])
        assert all(r.warm for r in reports[1:])
        assert server.snapshot()["backend"]["last_job"]["plan_misses"] == 0


class TestOneBookkeepingPath:
    def test_pool_and_in_process_servers_keep_the_same_books(self, pool, rng):
        requests = stream(rng, 5)
        pool_server, backend = make_server(pool)
        local_server = ConvolutionServer(server_config())
        books = []
        for server in (pool_server, local_server):
            for name, spectrum in kernels().items():
                server.register_kernel(name, spectrum)
            handles = [server.submit(f, kernel=kname) for f, kname in requests]
            server.drain()
            assert all(h.exception() is None for h in handles)
            books.append((server.snapshot(), handles))
        (pool_snap, pool_handles), (local_snap, _) = books

        for counter in ("requests_completed", "batches_executed"):
            assert pool_snap["counters"][counter] == local_snap["counters"][counter]
        assert pool_snap["counters"]["requests_completed"] == len(requests)
        for histogram in ("batch.size", "stage.queue_wait_s", "latency.e2e_s"):
            assert (
                pool_snap["histograms"][histogram]["count"]
                == local_snap["histograms"][histogram]["count"]
            )
        # the pool's wire bytes are exactly its job reports' totals
        reports = list(backend.job_reports)
        assert len(reports) == len(requests)
        assert pool_snap["counters"]["pool.wire_bytes"] == sum(
            sent_wire_bytes(r.wire_totals) for r in reports
        ) > 0
        # one job per request, each stamped with its own request's id
        by_id = {h.request_id: h for h in pool_handles}
        assert sorted(r.metadata["request_id"] for r in reports) == sorted(by_id)
        for report in reports:
            handle = by_id[report.metadata["request_id"]]
            assert np.array_equal(handle.result().approx, report.approx)
