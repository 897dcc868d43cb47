"""The standing pool end to end: warm mesh, generation fencing, recovery.

The acceptance bar, as tests:

- a job on a rendezvous-bootstrapped TCP mesh is bitwise identical to
  ``run_serial`` and its per-job wire stays within 2% of the exact
  per-destination value-byte prediction;
- a warm resubmission reuses processes, transports, and FFT plans
  (``plan_misses == 0``);
- a rank killed mid-job is replaced in-mesh via the checkpoint handoff
  and the recovered result is still bitwise identical;
- input distribution: the driver attaches a kernel to a rank's job
  message once, a default kernel never; a mutated array is a new kernel,
  a second controller learns what warm agents hold from their mesh
  replies, and a replacement agent (empty spectrum table) is sent the
  kernel exactly once — at every fail stage, for a non-root rank and for
  rank 0;
- a job stamped with a dead generation is fenced, never executed;
- a private pool (``serve-bench --pool auto``) leaves no rendezvous
  directory behind, also when its user raises.

Each test stands up its own pool over a private ``file://`` rendezvous
and tears it down, so tests never share agent processes.
"""

import tempfile
import threading

import numpy as np
import pytest

from repro.core.checkpoint import checkpoint_from_bytes
from repro.core.decomposition import DomainDecomposition
from repro.dist.inputs import default_spectrum, kernel_key
from repro.dist.worker import (
    FAIL_STAGES,
    STREAM_FAIL_STAGES,
    DistConfig,
    build_pipeline,
    composite_field,
)
from repro.dist.jobs import PoolJob
from repro.dist.runtime import control_reply
from repro.errors import ConfigurationError, PoolError
from repro.pool.pool import RankPool, private_pool

#: the calibrated reference shape shared with the dist acceptance tests
REFERENCE = dict(n=32, k=8, sigma=2.0, policy="flat:2")

#: ``wire_over_model`` bound at REFERENCE, P=4.  Each peer is sent only
#: the values of the cells touching its boxes (44% of the allgather's), and
#: no octree metadata: what is left above the prediction is the frame,
#: entry-count and per-field entry headers, 0.13% of the values (more on a
#: recovery job, which moves fewer values): measured 1.0013 cold, 1.0019
#: recovered.
WIRE_OVER_MODEL_ABS = 0.02


def _config(ranks, **overrides):
    return DistConfig(
        num_ranks=ranks, transport="tcp", **{**REFERENCE, **overrides}
    )


def _serial(config, field, spectrum):
    return build_pipeline(config, spectrum).run_serial(field).approx


@pytest.fixture
def pool_at(tmp_path):
    """Factory: a connected pool of N agents, torn down afterwards."""
    pools = []

    def connect(ranks):
        pool = RankPool(f"file://{tmp_path}")
        pools.append(pool)
        pool.spawn(ranks)
        pool.connect(ranks, timeout_s=30.0)
        return pool

    yield connect
    for pool in pools:
        pool.down()


class TestWarmSubmission:
    def test_job_is_bitwise_and_wire_accounted_then_warm(self, pool_at):
        pool = pool_at(4)
        config = _config(4)
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)

        cold = pool.submit(config, field=field, spectrum=spectrum)
        assert np.array_equal(cold.approx, _serial(config, field, spectrum))
        assert not cold.warm and not cold.recovered
        assert cold.predicted_value_bytes > 0
        assert cold.wire_over_model == pytest.approx(1.0, abs=WIRE_OVER_MODEL_ABS)

        warm = pool.submit(config, field=field, spectrum=spectrum)
        assert np.array_equal(warm.approx, _serial(config, field, spectrum))
        assert warm.warm
        # the whole point of the pool: plans persist across jobs
        assert warm.plan_misses == 0
        assert warm.plan_hits > 0
        assert warm.wire_over_model == pytest.approx(1.0, abs=WIRE_OVER_MODEL_ABS)
        assert warm.job_id != cold.job_id

    def test_submit_rejects_wrong_pool_size(self, pool_at):
        pool = pool_at(2)
        with pytest.raises(ConfigurationError, match="pool has 2 members"):
            pool.submit(_config(4))


class TestElasticMembership:
    def test_stale_generation_job_is_fenced_not_executed(self, pool_at):
        pool = pool_at(2)
        config = _config(2)
        stale = PoolJob(
            job_id=99,
            generation=pool.roster.generation + 5,
            config=config,
            blocks=list(
                DomainDecomposition(n=config.n, k=config.k).active_blocks(
                    composite_field(config.n, config.seed)
                )
            ),
            spectrum=default_spectrum(config),
        )
        pool._conns[0].send(("job", stale))
        kind, rank, message, is_stale = control_reply(
            pool._conns[0], "rank 0", 10.0, pool.clock
        )
        assert (kind, rank, is_stale) == ("job-error", 0, True)
        assert "generation" in message
        # the fence left the mesh intact: a correctly-stamped job still runs
        report = pool.submit(config)
        assert report.generation == pool.roster.generation


class TestRankDeathRecovery:
    def test_checkpoint_handoff_to_replacement_is_bitwise(self, pool_at):
        pool = pool_at(4)
        # rank 2 owns sub-domains at this shape, so the injected death
        # loses real work that the replacement must redo
        config = _config(4, fail_rank=2, fail_stage="before_checkpoint")
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)

        report = pool.submit(config, field=field, spectrum=spectrum)
        assert report.recovered
        assert not report.driver_fallback
        # rank 2 died; survivors abort their exchange when they see the
        # death, so they land in failed_ranks too — but only rank 2 was
        # actually replaced
        assert 2 in report.failed_ranks
        assert np.array_equal(report.approx, _serial(config, field, spectrum))
        # the retry's wire is audited against the prediction *minus* the
        # restored sub-domains, so the bar holds through recovery too
        assert report.wire_over_model == pytest.approx(1.0, abs=WIRE_OVER_MODEL_ABS)
        assert pool.roster.generation > 1

        # the replaced mesh is a first-class pool: the next job is clean
        clean = pool.submit(_config(4), field=field, spectrum=spectrum)
        assert not clean.recovered
        assert np.array_equal(clean.approx, _serial(config, field, spectrum))

    def test_driver_fallback_report_is_audited(self, pool_at, monkeypatch):
        """No spare and none can be spawned: the driver recovers the job
        from the posted checkpoints, and the report still says what the
        job was predicted to move."""
        pool = pool_at(2)

        def no_spare(self):
            raise PoolError("injected: roster cannot be refilled")

        monkeypatch.setattr(RankPool, "_replacement_card", no_spare)
        config = _config(2, fail_rank=1, fail_stage="before_exchange")
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)

        report = pool.submit(config, field=field, spectrum=spectrum)
        assert report.driver_fallback and report.recovered
        assert 1 in report.failed_ranks and report.replaced_ranks == []
        assert np.array_equal(report.approx, _serial(config, field, spectrum))
        assert report.predicted_value_bytes > 0
        assert report.predicted_input_bytes > 0

    def test_recover_false_surfaces_the_failure(self, pool_at):
        pool = pool_at(2)
        config = _config(2, fail_rank=1, fail_stage="before_checkpoint")
        with pytest.raises(PoolError, match="failed on ranks"):
            pool.submit(config, recover=False)


class TestReplacementStarter:
    """A replacement agent lives as long as the members it joins: a child
    of a controller that spawned the pool, a detached process for a pool
    started elsewhere (``pool up``), so it outlives a short-lived
    controller and the next one can still dial it."""

    @pytest.mark.parametrize("spawned_here", [True, False], ids=["child", "detached"])
    def test_replacement_uses_the_members_starter(
        self, tmp_path, monkeypatch, spawned_here
    ):
        import repro.pool.pool as pool_module
        from repro.pool.membership import Roster
        from repro.pool.rendezvous import AgentCard

        started = []
        fresh = AgentCard(agent_id="fresh", host="127.0.0.1", port=1, pid=1)

        def children(url, count, host="127.0.0.1"):
            started.append(("child", count))
            return []

        def detached(url, count, host="127.0.0.1"):
            started.append(("detached", count))

        monkeypatch.setattr(pool_module, "spawn_local_agents", children)
        monkeypatch.setattr(pool_module, "start_detached_agents", detached)
        monkeypatch.setattr(pool_module, "wait_for_cards", lambda *a, **kw: [fresh])
        pool = RankPool(f"file://{tmp_path}")
        member = AgentCard(agent_id="member", host="127.0.0.1", port=2, pid=2)
        pool.roster = Roster.form([member])
        if spawned_here:
            pool._procs.append(object())  # a member this controller forked
        assert pool._replacement_card() is fresh
        assert started == [("child" if spawned_here else "detached", 1)]


class TestInputDistribution:
    SHAPE = dict(n=16, k=4, policy="flat:2")

    def test_kernel_ships_once_then_stays_rank_side(self, pool_at):
        ranks = 3
        pool = pool_at(ranks)
        config = _config(ranks, **self.SHAPE)
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)

        # no spectrum given: the default kernel is evaluated rank-side and
        # nothing ships, even to ranks that never saw it
        default = pool.submit(config, field=field)
        cold = pool.submit(config, field=field, spectrum=spectrum)
        warm = pool.submit(config, field=field, spectrum=spectrum)
        for report in (default, cold, warm):
            assert np.array_equal(report.approx, _serial(config, field, spectrum))
            # no kernel, key or answer crosses the mesh: the blocks and
            # one scatter frame (header and indices) per peer
            framing = report.input_wire_bytes - report.predicted_input_bytes
            assert 0 < framing <= (ranks - 1) * 100
        assert cold.predicted_input_bytes == warm.predicted_input_bytes > 0
        # the cold job attached the kernel to every rank's message once;
        # the warm one names it by its 33-byte content key where the
        # default job names a 17-byte descriptor, and ships nothing
        assert ranks * spectrum.nbytes < cold.control_in_bytes - warm.control_in_bytes
        assert cold.control_in_bytes - warm.control_in_bytes < ranks * (spectrum.nbytes + 256)
        assert warm.control_in_bytes - default.control_in_bytes == ranks * (33 - 17)
        assert warm.control_in_bytes < field.nbytes  # no dense field either

    def test_a_mutated_kernel_is_shipped_again(self, pool_at):
        """The driver knows a kernel by its bits, not by the array object:
        an in-place write to the caller's array, ``0.0`` to ``-0.0``
        included, is a new kernel, shipped and convolved with."""
        ranks = 2
        pool = pool_at(ranks)
        config = _config(ranks, **self.SHAPE)
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)
        shipped = []
        for value in (None, 0.0, 0.0, -0.0, 0.0):
            if value is not None:
                spectrum[0, 0, 0] = value  # self-conjugate: still §3.1-valid
            report = pool.submit(config, field=field, spectrum=spectrum)
            assert np.array_equal(report.approx, _serial(config, field, spectrum.copy()))
            shipped.append(report.control_in_bytes // spectrum.nbytes)
        # the ranks hold all three kernels: the last job ships nothing
        assert shipped == [ranks, ranks, 0, ranks, 0]

    def test_a_second_controller_on_warm_agents_ships_nothing(self, pool_at, tmp_path):
        """A new controller learns what each agent holds from its mesh
        ``ready`` reply, so its first job on a kernel the agents were
        sent by an earlier controller ships nothing."""
        ranks = 2
        first = pool_at(ranks)
        config = _config(ranks, **self.SHAPE)
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)
        cold = first.submit(config, field=field, spectrum=spectrum)
        first.disconnect()
        second = RankPool(f"file://{tmp_path}")
        try:
            second.connect(ranks)
            report = second.submit(config, field=field, spectrum=spectrum.copy())
        finally:
            second.down()
        assert np.array_equal(report.approx, cold.approx)
        assert report.control_in_bytes < spectrum.nbytes < cold.control_in_bytes

    def test_rank_zero_is_handed_the_active_blocks_not_the_field(
        self, pool_at, monkeypatch
    ):
        """A half-cube field's job carries its active ``k^3`` blocks to
        rank 0, never the ``n^3`` field, and a recovery job only the
        blocks its checkpoint lacks."""
        import repro.pool.pool as pool_module

        jobs = []
        run_job = pool_module.run_job

        def recording(conns, job, clock):
            jobs.append(job)
            return run_job(conns, job, clock)

        monkeypatch.setattr(pool_module, "run_job", recording)
        ranks = 2
        pool = pool_at(ranks)
        config = _config(ranks, **self.SHAPE)
        field = composite_field(config.n, config.seed)  # the central half-cube
        decomposition = DomainDecomposition(n=config.n, k=config.k)
        active = [sub.index for sub in decomposition.active_subdomains(field)]
        expected = _serial(config, field, default_spectrum(config))

        report = pool.submit(config, field=field)
        (job,) = jobs
        assert [sub.index for sub, _block in job.blocks] == active
        assert len(active) == 8 < decomposition.num_domains
        for sub, block in job.blocks:
            assert block.shape == (config.k,) * 3
            assert np.array_equal(block, field[sub.slices()])
        assert job.for_rank(1).blocks is None
        assert 0 < report.control_in_bytes < field.nbytes
        assert np.array_equal(report.approx, expected)

        jobs.clear()
        failing = _config(ranks, fail_rank=1, fail_stage="mid_window", overlap=True, **self.SHAPE)
        report = pool.submit(failing, field=field)
        first, retry = jobs
        restored = checkpoint_from_bytes(retry.checkpoint)
        assert restored and len(first.blocks) == len(active)
        assert [sub.index for sub, _block in retry.blocks] == [
            i for i in active if i not in restored
        ]
        assert report.recovered and np.array_equal(report.approx, expected)

    @pytest.mark.parametrize("victim", [1, 0], ids=["non-root", "root"])
    def test_kill_at_every_stage_on_a_warm_pool(self, pool_at, victim, monkeypatch):
        import repro.pool.pool as pool_module

        jobs = []
        run_job = pool_module.run_job

        def recording(conns, job, clock):
            jobs.append(job)
            return run_job(conns, job, clock)

        monkeypatch.setattr(pool_module, "run_job", recording)
        ranks = 3
        pool = pool_at(ranks)
        clean = _config(ranks, **self.SHAPE)
        field = composite_field(clean.n, clean.seed)
        spectrum = default_spectrum(clean)
        expected = _serial(clean, field, spectrum)
        fresh = pool.submit(clean, field=field, spectrum=spectrum)
        block_bytes = 8 * clean.k**3

        for stage in FAIL_STAGES:
            config = _config(
                ranks,
                fail_rank=victim,
                fail_stage=stage,
                overlap=stage in STREAM_FAIL_STAGES,
                **self.SHAPE,
            )
            report = pool.submit(config, field=field, spectrum=spectrum)
            assert report.recovered and not report.driver_fallback, stage
            assert report.replaced_ranks == [victim], stage
            assert np.array_equal(report.approx, expected), stage
            # the resumed job scatters only what its checkpoint lacks,
            # which is exactly what the non-root ranks then convolve
            scattered = sum(
                r.num_chunks for rank, r in report.rank_results.items() if rank
            )
            assert report.predicted_input_bytes == block_bytes * scattered, stage
            assert report.predicted_input_bytes <= fresh.predicted_input_bytes
            # rank 0 sends each peer the checkpoint and a scatter frame;
            # the driver attaches the kernel to the retry's message for
            # the replacement agent alone, whose table starts empty
            root_sent = report.rank_results[0].wire["counters"]
            assert root_sent["sent.bcast.frames"] == 2 * (ranks - 1), stage
            assert jobs[-1].recovery and jobs[-1].ship_to == {victim}, stage

            after = pool.submit(clean, field=field, spectrum=spectrum)
            assert not after.recovered and jobs[-1].ship_to == set(), stage
            assert after.control_in_bytes < spectrum.nbytes, stage
            assert after.input_wire_bytes < spectrum.nbytes, stage
            assert np.array_equal(after.approx, expected), stage


class TestPrivatePoolCleanup:
    CONFIG = DistConfig(n=16, k=4, policy="flat:2", num_ranks=2, transport="tcp")

    def _cold_then_warm(self, field):
        with private_pool(self.CONFIG.num_ranks) as pool:
            return [pool.submit(self.CONFIG, field=field) for _ in range(2)]

    @pytest.fixture
    def tmpdir_root(self, tmp_path, monkeypatch):
        """An empty directory standing in for ``$TMPDIR``."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_pool_trial_removes_its_rendezvous_directory(self, tmpdir_root):
        field = composite_field(self.CONFIG.n, self.CONFIG.seed)
        cold, warm = self._cold_then_warm(field)
        expected = _serial(self.CONFIG, field, None)
        assert np.array_equal(cold.approx, expected)
        assert np.array_equal(warm.approx, expected)
        assert warm.plan_misses == 0
        assert list(tmpdir_root.iterdir()) == []

    def test_directory_is_removed_when_the_trial_raises(
        self, tmpdir_root, monkeypatch
    ):
        seen = []

        def submit(pool, *args, **kwargs):
            seen.extend(tmpdir_root.iterdir())
            raise PoolError("injected")

        monkeypatch.setattr(RankPool, "submit", submit)
        with pytest.raises(PoolError, match="injected"):
            self._cold_then_warm(composite_field(self.CONFIG.n, self.CONFIG.seed))
        assert len(seen) == 1  # the directory did exist while the pool was up
        assert list(tmpdir_root.iterdir()) == []


def test_warm_agent_job_runs_no_kernel_check_and_builds_no_pipeline(monkeypatch):
    """The rank agent keeps its pipeline beside its spectrum table: the
    second job of a shape on a standing rank builds no pipeline and runs
    the §3.1 check on no kernel.  The agents run on thread ranks over a
    loopback fabric, so the patched functions see every call."""
    import repro.core.local_conv as local_conv
    import repro.dist.worker as worker
    from repro.dist.agent import RankAgent
    from repro.dist.collectives import Communicator
    from repro.dist.launcher import assemble_blocks
    from repro.dist.transport import LocalFabric

    ranks = 2
    config = DistConfig(num_ranks=ranks, n=16, k=4, policy="flat:2")
    field = composite_field(config.n, config.seed)
    spectrum = default_spectrum(config)
    key = kernel_key(spectrum)
    expected = _serial(config, field, spectrum)
    blocks = list(DomainDecomposition(n=config.n, k=config.k).active_blocks(field))
    fabric = LocalFabric(ranks)
    agents = [RankAgent(f"thread-{rank}") for rank in range(ranks)]
    for rank, agent in enumerate(agents):
        agent.comm = Communicator(fabric.endpoint(rank), recv_timeout_s=20.0)
        agent.rank, agent.generation = rank, 1

    def run(job_id):
        job = PoolJob(
            job_id, 1, config, blocks=blocks, kernel_key=key, spectrum=spectrum,
            ship_to=frozenset(range(ranks)) if job_id == 1 else frozenset(),
        )
        replies = [[] for _ in agents]
        threads = [
            threading.Thread(
                target=agent.handle,
                args=(("job", job.for_rank(rank)), replies[rank].append),
            )
            for rank, agent in enumerate(agents)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert [reply[-1][0] for reply in replies] == ["result"] * ranks
        return {rank: reply[-1][2] for rank, reply in enumerate(replies)}

    try:
        run(1)  # cold: the kernel ships, each rank builds and checks once
        checks, builds = [], []
        monkeypatch.setattr(local_conv, "check_hermitian_real", lambda *a: checks.append(a))
        monkeypatch.setattr(worker, "build_pipeline", lambda *a, **kw: builds.append(a))
        results = run(2)
        assert (checks, builds) == ([], [])
        assert sum(result.plan_misses for result in results.values()) == 0
        assert np.array_equal(assemble_blocks(config, results), expected)
    finally:
        for agent in agents:
            agent.teardown_mesh()
