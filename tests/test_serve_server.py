"""End-to-end serving tests: lifecycle, bitwise identity, concurrency."""

import threading

import numpy as np
import pytest

from repro.core import policy as policy_module
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.fft import pruned_plan
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ServiceError,
    ShapeError,
)
from repro.kernels.gaussian import GaussianKernel
from repro.serve import (
    ConvolutionServer,
    RequestState,
    ServerConfig,
)
from repro.serve.loadgen import LoadSpec, parse_policy, run_serve_benchmark
from repro.util.clock import ManualClock
from repro.util.lru import WeightedLRU

N, K = 16, 4
POLICY = SamplingPolicy.flat_rate(4)


@pytest.fixture
def spectrum():
    return GaussianKernel(n=N, sigma=1.5).spectrum()


@pytest.fixture
def server(spectrum):
    srv = ConvolutionServer(
        ServerConfig(n=N, k=K, max_batch_size=4, max_wait_s=0.05,
                     default_policy=POLICY),
        clock=ManualClock(),
    )
    srv.register_kernel("g", spectrum)
    return srv


class TestServedResults:
    def test_bitwise_identical_to_direct_run(self, server, spectrum, rng):
        fields = [rng.standard_normal((N, N, N)) for _ in range(6)]
        handles = [server.submit(f, kernel="g") for f in fields]
        server.drain()
        direct = LowCommConvolution3D(N, K, spectrum, POLICY)
        for handle, field in zip(handles, fields):
            served = handle.result()
            expected = direct.run_serial(field)
            np.testing.assert_array_equal(served.approx, expected.approx)
            assert served.total_samples == expected.total_samples

    def test_a_write_to_the_registered_array_changes_no_result(self, server, spectrum, rng):
        """The server keeps its own copy of a registered kernel: writing to
        the caller's array after registering (here one that also breaks
        the centrosymmetry §3.1 registration checked) changes nothing."""
        field = rng.standard_normal((N, N, N))
        expected = LowCommConvolution3D(N, K, spectrum.copy(), POLICY).run_serial(field)
        first = server.submit(field, kernel="g")
        server.drain()
        spectrum[0, 0, 1] = 5.0
        second = server.submit(field, kernel="g")
        server.drain()
        for handle in (first, second):
            np.testing.assert_array_equal(handle.result().approx, expected.approx)

    def test_result_is_full_convolution_result(self, server, rng):
        handle = server.submit(rng.standard_normal((N, N, N)), kernel="g")
        server.drain()
        result = handle.result()
        assert result.approx.shape == (N, N, N)
        assert result.num_subdomains == (N // K) ** 3
        assert result.compression_ratio > 1.0

    def test_engines_stay_warm_across_batches(self, server, rng, monkeypatch):
        table = WeightedLRU(max_weight=1 << 30)
        monkeypatch.setattr(policy_module, "_PATTERNS", table)
        for _ in range(3):
            server.submit(rng.standard_normal((N, N, N)), kernel="g")
            server.drain()
        assert server.executor.engine_count == 1
        engine = server.executor.engine_for((N, K, "g", POLICY, None))
        assert isinstance(engine, LowCommConvolution3D)
        assert server.executor.engine_count == 1  # that was a hit
        # every batch takes its patterns from the process-wide table: one
        # build per sub-domain, all in the first batch
        assert table.misses == len(table) == (N // K) ** 3

    def test_second_kernel_builds_no_plan(self, server, spectrum, rng):
        """Engines of one shape share the process's FFT plans: a second
        kernel's engine finds every plan the first one built."""
        server.register_kernel("g2", 2.0 * spectrum)
        field = rng.standard_normal((N, N, N))
        server.submit(field, kernel="g")
        server.drain()
        built = pruned_plan.PLANS.misses
        assert built > 0
        server.submit(field, kernel="g2")
        server.drain()
        assert server.executor.engine_count == 2
        assert pruned_plan.PLANS.misses == built


class TestLifecycle:
    def test_states_progress_to_done(self, server, rng):
        handle = server.submit(rng.standard_normal((N, N, N)), kernel="g")
        assert handle.state is RequestState.QUEUED
        assert not handle.done()
        server.drain()
        assert handle.state is RequestState.DONE
        assert handle.done()
        assert handle.exception() is None

    def test_handle_result_timeout(self, server, rng):
        handle = server.submit(rng.standard_normal((N, N, N)), kernel="g")
        with pytest.raises(TimeoutError):
            handle.result(timeout=0)

    def test_terminal_state_is_sticky(self, server, rng):
        handle = server.submit(rng.standard_normal((N, N, N)), kernel="g")
        server.drain()
        assert not handle._finish(RequestState.FAILED)  # already DONE
        assert handle.state is RequestState.DONE


class TestConfigValidation:
    def test_k_must_divide_n(self):
        with pytest.raises(ConfigurationError, match="must divide"):
            ConvolutionServer(ServerConfig(n=16, k=5))

    def test_kernel_shape_checked(self, server):
        with pytest.raises(ShapeError):
            server.register_kernel("bad", np.zeros((N, N)))

    def test_non_hermitian_kernel_rejected_at_registration(self, server, spectrum):
        """A kernel the half-spectrum path cannot run exactly is refused
        when it is registered, not request by request after retries."""
        bad = spectrum.astype(np.complex128)
        bad[1, 2, 3] += 1j * np.max(np.abs(spectrum))
        with pytest.raises(ConfigurationError, match="§3.1"):
            server.register_kernel("bad", bad)
        handle = server.submit(np.ones((N, N, N)), kernel="bad")
        assert handle.state is RequestState.REJECTED

    @pytest.mark.parametrize("batch", [0, -1])
    def test_non_positive_batch_rejected(self, batch):
        with pytest.raises(ConfigurationError, match="batch"):
            ConvolutionServer(ServerConfig(n=N, k=K, batch=batch))


class TestBackgroundServing:
    def test_background_thread_serves_real_traffic(self, spectrum, rng):
        # Real clock + daemon thread: the one test that exercises the
        # production loop (tiny problem, bounded by the handle timeout).
        server = ConvolutionServer(
            ServerConfig(n=N, k=K, max_batch_size=2, max_wait_s=0.005,
                         default_policy=POLICY)
        )
        server.register_kernel("g", spectrum)
        server.start()
        try:
            with pytest.raises(ConfigurationError, match="already started"):
                server.start()
            handles = [
                server.submit(rng.standard_normal((N, N, N)), kernel="g")
                for _ in range(3)
            ]
            results = [h.result(timeout=30) for h in handles]
            assert all(r.approx.shape == (N, N, N) for r in results)
        finally:
            server.stop()
        assert server.snapshot()["counters"]["requests_completed"] == 3

    def test_concurrent_submitters(self, spectrum, rng):
        server = ConvolutionServer(
            ServerConfig(n=N, k=K, max_batch_size=4, max_wait_s=0.005,
                         max_queue=64, default_policy=POLICY)
        )
        server.register_kernel("g", spectrum)
        server.start()
        collected = []
        lock = threading.Lock()

        def client(seed):
            local_rng = np.random.default_rng(seed)
            handle = server.submit(
                local_rng.standard_normal((N, N, N)), kernel="g"
            )
            result = handle.result(timeout=30)
            with lock:
                collected.append(result)

        try:
            threads = [threading.Thread(target=client, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            server.stop()
        assert len(collected) == 6


class TestLoadgen:
    def test_load_spec_is_deterministic(self):
        a = LoadSpec(n=N, k=K, num_requests=3, seed=7).requests()
        b = LoadSpec(n=N, k=K, num_requests=3, seed=7).requests()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x["field"], y["field"])
            assert x["kernel"] == y["kernel"]

    def test_parse_policy(self):
        assert parse_policy("flat:3").flat == 3
        assert parse_policy("banded").flat is None
        with pytest.raises(ConfigurationError):
            parse_policy("flat:x")
        with pytest.raises(ConfigurationError):
            parse_policy("nope")

    def test_benchmark_tiny_stream_bitwise_identical(self):
        spec = LoadSpec(n=N, k=K, num_requests=5, num_kernels=2,
                        policy="flat:4", seed=3)
        config = ServerConfig(n=N, k=K, max_batch_size=2, max_wait_s=0.005)
        report = run_serve_benchmark(spec, config)
        assert report.bitwise_identical
        assert report.batches >= 2  # two kernels -> at least two batches
        assert report.naive_s > 0 and report.batched_s > 0


class TestShutdown:
    def test_shutdown_drains_in_flight_requests(self, server, rng):
        handles = [
            server.submit(rng.standard_normal((N, N, N)), kernel="g")
            for _ in range(3)
        ]
        summary = server.shutdown(drain=True)
        assert summary == {
            "drained": 3, "cancelled": 0, "already_shut_down": False,
        }
        assert all(h.state is RequestState.DONE for h in handles)
        assert len(server.queue) == 0

    def test_shutdown_without_drain_cancels_with_recorded_outcome(
        self, server, rng
    ):
        handles = [
            server.submit(rng.standard_normal((N, N, N)), kernel="g")
            for _ in range(2)
        ]
        summary = server.shutdown(drain=False)
        assert summary["cancelled"] == 2
        assert len(server.queue) == 0
        for h in handles:
            assert h.state is RequestState.FAILED
            with pytest.raises(ServiceError, match="cancelled by shutdown"):
                h.result(timeout=0)
        assert server.snapshot()["counters"]["requests_cancelled"] == 2

    def test_double_shutdown_is_idempotent(self, server, rng):
        server.submit(rng.standard_normal((N, N, N)), kernel="g")
        first = server.shutdown()
        second = server.shutdown()
        third = server.shutdown(drain=False)
        assert not first["already_shut_down"]
        assert second == {
            "drained": 0, "cancelled": 0, "already_shut_down": True,
        }
        assert third["already_shut_down"]

    def test_submit_after_shutdown_is_rejected(self, server, rng):
        server.shutdown()
        handle = server.submit(rng.standard_normal((N, N, N)), kernel="g")
        assert handle.state is RequestState.REJECTED
        with pytest.raises(AdmissionError, match="shut down"):
            handle.result(timeout=0)
        assert server.snapshot()["server"]["shut_down"]

    def test_shutdown_stops_background_loop(self, spectrum):
        server = ConvolutionServer(
            ServerConfig(n=N, k=K, max_wait_s=0.005, default_policy=POLICY)
        )
        server.register_kernel("g", spectrum)
        server.start()
        assert server._thread is not None
        server.shutdown()
        assert server._thread is None
