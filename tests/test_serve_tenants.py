"""Multi-tenant serving: quotas, isolation, and deterministic load mixes.

The regression this file guards: a noisy tenant flooding the front door
must be shed at *its own* quota, leaving the shared waiting room — and
therefore every quiet tenant's latency — untouched.  Quotas bound
waiting-room occupancy only; tenants still share batches (tenant is
deliberately not part of the compatibility key).
"""

import numpy as np
import pytest

from repro.errors import AdmissionError, ConfigurationError
from repro.kernels.gaussian import GaussianKernel
from repro.serve import (
    BoundedRequestQueue,
    ConvolutionServer,
    DEFAULT_TENANT,
    RequestState,
    ServerConfig,
    TenantSpec,
)
from repro.serve.loadgen import LoadSpec
from repro.util.clock import ManualClock

N, K = 16, 4


@pytest.fixture
def server():
    srv = ConvolutionServer(
        ServerConfig(
            n=N,
            k=K,
            max_queue=16,
            max_batch_size=4,
            max_wait_s=0.05,
            tenant_quotas={"noisy": 4},
        ),
        clock=ManualClock(),
    )
    srv.register_kernel("g", GaussianKernel(n=N, sigma=1.5).spectrum())
    return srv


class TestQuotaAdmission:
    def test_noisy_tenant_shed_at_quota_not_at_global_bound(self, server, rng):
        fields = [rng.standard_normal((N,) * 3) for _ in range(8)]
        handles = [server.submit(f, kernel="g", tenant="noisy") for f in fields]
        states = [h.state for h in handles]
        assert states[:4] == [RequestState.QUEUED] * 4
        assert states[4:] == [RequestState.REJECTED] * 4
        with pytest.raises(AdmissionError, match="tenant 'noisy' at quota"):
            handles[4].result(timeout=0)
        snap = server.snapshot()
        assert snap["counters"]["tenant.noisy.rejected"] == 4
        # global capacity was never the limiter
        assert len(server.queue) == 4 < server.config.max_queue

    def test_noisy_tenant_cannot_starve_quiet_tenants_p99(self, server, rng):
        deadline_s = 10.0
        noisy = [
            server.submit(
                rng.standard_normal((N,) * 3), kernel="g", tenant="noisy"
            )
            for _ in range(12)
        ]
        quiet = [
            server.submit(
                rng.standard_normal((N,) * 3),
                kernel="g",
                tenant="quiet",
                timeout_s=deadline_s,
            )
            for _ in range(3)
        ]
        server.drain()
        # every admitted request (both tenants) completed...
        assert all(h.exception() is None for h in quiet)
        assert sum(1 for h in noisy if h.exception() is None) == 4
        # ...and the quiet tenant's worst-case latency beat its deadline
        lat = server.snapshot()["histograms"]["tenant.quiet.latency.e2e_s"]
        assert lat["count"] == 3
        assert lat["max"] < deadline_s

    def test_default_tenant_quota_bounds_unnamed_tenants(self, rng):
        server = ConvolutionServer(
            ServerConfig(
                n=N, k=K, max_queue=16, default_tenant_quota=2
            ),
            clock=ManualClock(),
        )
        server.register_kernel("g", GaussianKernel(n=N, sigma=1.5).spectrum())
        handles = [
            server.submit(rng.standard_normal((N,) * 3), kernel="g")
            for _ in range(3)
        ]
        assert [h.state for h in handles] == [
            RequestState.QUEUED,
            RequestState.QUEUED,
            RequestState.REJECTED,
        ]

    def test_retries_are_exempt_from_quota(self, rng):
        calls = {"n": 0}

        def fail_once(batch, attempt):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("injected worker failure")

        server = ConvolutionServer(
            ServerConfig(
                n=N, k=K, tenant_quotas={"t": 1}, max_retries=1,
                retry_backoff_s=0.01,
            ),
            clock=ManualClock(),
            fault_hook=fail_once,
        )
        server.register_kernel("g", GaussianKernel(n=N, sigma=1.5).spectrum())
        handle = server.submit(
            rng.standard_normal((N,) * 3), kernel="g", tenant="t"
        )
        server.drain()
        # the retry re-entered a full-at-quota tenant bucket without shedding
        assert handle.exception() is None
        assert handle.state is RequestState.DONE


class TestQueueAccounting:
    def test_tenant_depths_track_push_pop_and_drain(self, server, rng):
        for tenant in ("a", "a", "b"):
            server.submit(
                rng.standard_normal((N,) * 3), kernel="g", tenant=tenant
            )
        assert server.queue.tenant_depth("a") == 2
        assert server.queue.tenant_depth("b") == 1
        assert server.queue.tenant_depth(DEFAULT_TENANT) == 0
        server.drain()
        assert server.queue.tenant_depth("a") == 0
        assert server.queue.tenant_depth("b") == 0

    def test_quota_lookup_falls_back_to_default(self):
        q = BoundedRequestQueue(
            8, tenant_quotas={"a": 4}, default_tenant_quota=2
        )
        assert q.tenant_quota("a") == 4
        assert q.tenant_quota("b") == 2
        assert BoundedRequestQueue(8).tenant_quota("b") is None

    def test_drain_all_empties_queue_and_depths(self, server, rng):
        for tenant in ("a", "a", "b"):
            server.submit(
                rng.standard_normal((N,) * 3), kernel="g", tenant=tenant
            )
        drained = server.queue.drain_all()
        assert len(drained) == 3
        assert len(server.queue) == 0
        assert server.queue.tenant_depth("a") == 0
        assert server.queue.tenant_depth("b") == 0


class TestLoadgenTenantMix:
    def test_mix_is_deterministic_and_weighted(self):
        tenants = (
            TenantSpec("heavy", weight=3.0, timeout_s=5.0),
            TenantSpec("light", weight=1.0),
        )
        spec = LoadSpec(
            n=N, k=K, num_requests=40, policy="flat:4", tenants=tenants
        )
        first = [item["tenant"] for item in spec.requests()]
        second = [item["tenant"] for item in spec.requests()]
        assert first == second
        counts = {t: first.count(t) for t in ("heavy", "light")}
        assert counts["heavy"] > counts["light"] > 0
        timeouts = {
            item["tenant"]: item["timeout_s"] for item in spec.requests()
        }
        assert timeouts == {"heavy": 5.0, "light": None}

    def test_tenant_mix_never_changes_the_fields(self):
        plain = LoadSpec(n=N, k=K, num_requests=4, policy="flat:4")
        mixed = LoadSpec(
            n=N, k=K, num_requests=4, policy="flat:4",
            tenants=(TenantSpec("a"), TenantSpec("b")),
        )
        for a, b in zip(plain.requests(), mixed.requests()):
            np.testing.assert_array_equal(a["field"], b["field"])
            assert a["kernel"] == b["kernel"]
        assert all(
            item["tenant"] == DEFAULT_TENANT for item in plain.requests()
        )

    def test_zero_weight_tenant_rejected(self):
        with pytest.raises(ConfigurationError, match="weight > 0"):
            TenantSpec("t", weight=0.0)
