"""Fault injection at the runtime level: ranks die, the answer doesn't.

``DistConfig.fail_rank`` / ``fail_stage`` make one rank call its abort
hook (``os._exit`` under TCP, a fabric kill on the loopback transport) at
a chosen pipeline stage.  Whatever the stage, ``dist_run`` must detect
the death, solve the job again in process, and still produce output
bitwise identical to ``run_serial``.
"""

import numpy as np
import pytest

from repro.dist.inputs import default_spectrum
from repro.dist.launcher import dist_run
from repro.dist.worker import (
    BARRIER_FAIL_STAGES,
    FAIL_STAGES,
    DistConfig,
    build_pipeline,
    composite_field,
)
from repro.errors import ConfigurationError

SMALL = dict(n=16, k=4, sigma=2.0, policy="flat:2")


def _serial_reference(config):
    field = composite_field(config.n, config.seed)
    spectrum = default_spectrum(config)
    serial = build_pipeline(config, spectrum).run_serial(field)
    return field, spectrum, serial


def _assert_recovers_bitwise(config):
    field, spectrum, serial = _serial_reference(config)
    report = dist_run(config, field=field, spectrum=spectrum)
    assert config.fail_rank in report.failed_ranks
    assert report.recovered
    assert np.array_equal(report.approx, serial.approx)
    return report


class TestLocalRecovery:
    @pytest.mark.parametrize("stage", BARRIER_FAIL_STAGES)
    def test_stage_crash_recovers_bitwise(self, stage):
        config = DistConfig(
            num_ranks=3,
            transport="local",
            fail_rank=1,
            fail_stage=stage,
            **SMALL,
        )
        _assert_recovers_bitwise(config)

    def test_rank0_crash_recovers(self):
        # rank 0 is special (it broadcasts the inputs) but dies *after*
        # the broadcast stages, so recovery still works
        config = DistConfig(
            num_ranks=3,
            transport="local",
            fail_rank=0,
            fail_stage="before_exchange",
            **SMALL,
        )
        _assert_recovers_bitwise(config)


class TestTcpRecovery:
    @pytest.mark.parametrize("stage", BARRIER_FAIL_STAGES)
    def test_process_death_recovers_bitwise(self, stage):
        config = DistConfig(
            num_ranks=3,
            transport="tcp",
            fail_rank=1,
            fail_stage=stage,
            **SMALL,
        )
        _assert_recovers_bitwise(config)


class TestStreamedRecovery:
    """Fault injection at the overlap-mode pipeline's new interleavings.

    ``stream_send`` dies with the first chunk (at least partially) on the
    wire, ``mid_window`` with the send window half-way through the chunk
    stream; the barrier-style stages fire in overlap mode too.  Whatever
    the stage, the job solved again must be bitwise identical.
    """

    @pytest.mark.parametrize("stage", FAIL_STAGES)
    def test_local_stream_crash_recovers_bitwise(self, stage):
        config = DistConfig(
            num_ranks=3,
            transport="local",
            overlap=True,
            fail_rank=1,
            fail_stage=stage,
            **SMALL,
        )
        _assert_recovers_bitwise(config)

    @pytest.mark.parametrize("stage", FAIL_STAGES)
    def test_tcp_stream_crash_recovers_bitwise(self, stage):
        config = DistConfig(
            num_ranks=3,
            transport="tcp",
            overlap=True,
            fail_rank=1,
            fail_stage=stage,
            **SMALL,
        )
        _assert_recovers_bitwise(config)

    def test_barrier_stages_still_work_with_overlap(self):
        """The legacy stage names also fire in overlap mode."""
        config = DistConfig(
            num_ranks=2,
            transport="local",
            overlap=True,
            fail_rank=1,
            fail_stage="before_exchange",
            **SMALL,
        )
        _assert_recovers_bitwise(config)

    def test_stream_stage_requires_overlap_mode(self):
        with pytest.raises(ConfigurationError, match="overlap"):
            DistConfig(
                num_ranks=2, fail_rank=1, fail_stage="stream_send", **SMALL
            )


class TestHeartbeatedRun:
    def test_clean_run_with_heartbeats_is_bitwise(self):
        """Beacon traffic must not leak into the exchange accounting or
        perturb the result."""
        config = DistConfig(
            num_ranks=2, transport="local", heartbeat_s=0.05, **SMALL
        )
        field, spectrum, serial = _serial_reference(config)
        report = dist_run(config, field=field, spectrum=spectrum)
        assert np.array_equal(report.approx, serial.approx)
        assert not report.recovered
        # heartbeats are control traffic, not exchange traffic
        p = config.num_ranks
        from repro.dist.wire import HEADER_BYTES

        expected = sum(
            (p - 1) * HEADER_BYTES + r.exchange_payload_bytes
            for r in report.rank_results.values()
        )
        assert report.exchange_wire_bytes == expected

    def test_failed_run_leaves_no_beacon_thread(self):
        """A rank that fails still closes its communicator: the beacon
        threads of a failed heartbeated run do not outlive it."""
        import threading

        config = DistConfig(
            num_ranks=3,
            transport="local",
            heartbeat_s=0.05,
            fail_rank=1,
            fail_stage="before_exchange",
            **SMALL,
        )
        before = threading.active_count()
        assert dist_run(config).recovered
        assert threading.active_count() == before


class TestHeartbeatSenderShutdown:
    """The beacon thread must never be able to wedge a shutdown."""

    def _sender(self, interval_s=0.01):
        from repro.dist.heartbeat import HeartbeatSender
        from repro.dist.transport import LocalFabric

        fabric = LocalFabric(2)
        return HeartbeatSender(fabric.endpoint(0), interval_s), fabric

    def test_thread_is_daemon(self):
        sender, _ = self._sender()
        assert sender._thread.daemon

    def test_stop_is_idempotent_and_joinable(self):
        sender, _ = self._sender()
        sender.start()
        assert sender.stop() is True
        assert sender.stop() is True  # second call must not block or raise
        assert not sender._thread.is_alive()

    def test_stop_before_start_is_safe(self):
        sender, _ = self._sender()
        assert sender.stop() is True
        sender.start()  # stop already requested: must stay a no-op
        assert not sender._thread.is_alive()

    def test_start_twice_is_a_noop(self):
        sender, _ = self._sender()
        sender.start()
        sender.start()
        assert sender.stop() is True

    def test_communicator_close_twice_is_safe(self):
        from repro.dist.collectives import Communicator
        from repro.dist.transport import LocalFabric

        fabric = LocalFabric(2)
        comm = Communicator(fabric.endpoint(0), heartbeat_s=0.01)
        comm.close()
        comm.close()  # double close: idempotent stop + transport close
        assert comm._sender is not None
        assert not comm._sender._thread.is_alive()
