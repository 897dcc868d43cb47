"""The standing pool end to end: warm mesh, elastic membership, recovery.

The acceptance bar, as tests:

- a job on a rendezvous-bootstrapped TCP mesh is bitwise identical to
  ``run_serial`` and its per-job wire stays within 2% of the exact
  per-destination value-byte prediction;
- a warm resubmission reuses processes, transports, and FFT plans
  (``plan_misses == 0``);
- a rank killed mid-job is replaced in-mesh via the checkpoint handoff
  and the recovered result is still bitwise identical;
- input distribution: a kernel ships to a rank once, a default kernel
  never, and a replacement agent (empty spectrum table) misses exactly
  once — at every fail stage, for a non-root rank and for rank 0;
- late joiners grow the roster and the next job spreads across them;
- a job stamped with a dead generation is fenced, never executed;
- a private pool (``serve-bench --pool auto``) leaves no rendezvous
  directory behind, also when its user raises.

Each test stands up its own pool over a private ``file://`` rendezvous
and tears it down, so tests never share agent processes.
"""

import tempfile

import numpy as np
import pytest

from repro.dist.inputs import default_spectrum
from repro.dist.wire import HEADER_BYTES
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
#: the cells touching its boxes, so the value bytes fall to 44% of the
#: allgather's; octree metadata stays 0.53% of them, while the fixed
#: record and frame headers grow to about 0.45% (more on a recovery job,
#: which moves fewer values): measured 1.0099 cold, 1.0107 recovered.
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
    def test_late_joiners_grow_the_next_job(self, pool_at):
        pool = pool_at(2)
        generation = pool.roster.generation
        config2 = _config(2)
        field = composite_field(config2.n, config2.seed)
        spectrum = default_spectrum(config2)
        assert np.array_equal(
            pool.submit(config2, field=field, spectrum=spectrum).approx,
            _serial(config2, field, spectrum),
        )

        pool.spawn(2)
        roster = pool.grow(2, timeout_s=30.0)
        assert roster.size == 4
        assert roster.generation > generation

        config4 = _config(4)
        report = pool.submit(config4, field=field, spectrum=spectrum)
        assert np.array_equal(report.approx, _serial(config4, field, spectrum))
        assert report.generation == roster.generation

    def test_stale_generation_job_is_fenced_not_executed(self, pool_at):
        pool = pool_at(2)
        config = _config(2)
        stale = PoolJob(
            job_id=99,
            generation=pool.roster.generation + 5,
            config=config,
            field=composite_field(config.n, config.seed),
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


class TestInputDistribution:
    SHAPE = dict(n=16, k=4, policy="flat:2")

    def test_kernel_ships_once_then_stays_rank_side(self, pool_at):
        ranks = 3
        pool = pool_at(ranks)
        config = _config(ranks, **self.SHAPE)
        field = composite_field(config.n, config.seed)
        spectrum = default_spectrum(config)
        shipped = (ranks - 1) * (HEADER_BYTES + 32 + spectrum.nbytes)

        cold = pool.submit(config, field=field, spectrum=spectrum)
        warm = pool.submit(config, field=field, spectrum=spectrum)
        assert cold.predicted_input_bytes == warm.predicted_input_bytes > 0
        framing = warm.input_wire_bytes - warm.predicted_input_bytes
        # per peer: announcement, have/need answer, scatter frame + indices
        assert 0 < framing <= (ranks - 1) * 160
        assert cold.input_wire_bytes == warm.input_wire_bytes + shipped
        assert warm.input_wire_bytes < field.nbytes  # no dense field either

        # no spectrum given: the default kernel is evaluated rank-side and
        # nothing ships, even to ranks that never saw it
        other = _config(ranks, **{**self.SHAPE, "sigma": 1.25})
        default = pool.submit(other, field=field)
        assert default.input_wire_bytes < warm.input_wire_bytes
        assert np.array_equal(
            default.approx, _serial(other, field, default_spectrum(other))
        )

    @pytest.mark.parametrize("victim", [1, 0], ids=["non-root", "root"])
    def test_kill_at_every_stage_on_a_warm_pool(self, pool_at, victim):
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
            # rank 0 sends each peer an announcement, the checkpoint and a
            # scatter frame; the kernel itself only to a replacement
            # agent, whose table starts empty (a replaced rank 0 is
            # handed the spectrum with the job, and the survivors hold it)
            root_sent = report.rank_results[0].wire["counters"]
            ships = 1 if victim else 0
            assert root_sent["sent.bcast.frames"] == 3 * (ranks - 1) + ships, stage

            after = pool.submit(clean, field=field, spectrum=spectrum)
            assert not after.recovered, stage
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
