"""End-to-end serving tests: lifecycle, bitwise identity, concurrency."""

import threading

import numpy as np
import pytest

from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
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

    def test_result_is_full_convolution_result(self, server, rng):
        handle = server.submit(rng.standard_normal((N, N, N)), kernel="g")
        server.drain()
        result = handle.result()
        assert result.approx.shape == (N, N, N)
        assert result.num_subdomains == (N // K) ** 3
        assert result.compression_ratio > 1.0

    def test_engines_stay_warm_across_batches(self, server, rng):
        for _ in range(3):
            server.submit(rng.standard_normal((N, N, N)), kernel="g")
            server.drain()
        assert server.executor.engine_count == 1
        # one engine means one shared pattern cache across all batches
        engine = next(iter(server.executor._engines.values()))
        assert isinstance(engine, LowCommConvolution3D)
        assert len(engine._pattern_cache) == (N // K) ** 3


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

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ConvolutionServer(ServerConfig(n=N, k=K, mode="quantum"))


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
