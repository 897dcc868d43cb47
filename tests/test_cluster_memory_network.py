"""Tests for the memory ledger and alpha-beta network models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.memory import MemoryTracker
from repro.cluster.network import Link, Network
from repro.errors import ConfigurationError, DeviceMemoryError


class TestMemoryTracker:
    def test_alloc_free_cycle(self):
        mt = MemoryTracker(capacity_bytes=100)
        a = mt.alloc("buf", 60)
        assert mt.current_bytes == 60
        mt.free(a)
        assert mt.current_bytes == 0
        assert mt.peak_bytes == 60

    def test_oom_raises_with_details(self):
        mt = MemoryTracker(capacity_bytes=100, device_name="gpu0")
        mt.alloc("a", 80)
        with pytest.raises(DeviceMemoryError) as exc:
            mt.alloc("b", 40)
        assert exc.value.requested == 40
        assert exc.value.available == 20
        assert "gpu0" in str(exc.value)

    def test_oom_leaves_state_unchanged(self):
        mt = MemoryTracker(capacity_bytes=100)
        mt.alloc("a", 80)
        with pytest.raises(DeviceMemoryError):
            mt.alloc("b", 40)
        assert mt.current_bytes == 80

    def test_double_free_raises(self):
        mt = MemoryTracker()
        a = mt.alloc("a", 10)
        mt.free(a)
        with pytest.raises(ConfigurationError):
            mt.free(a)

    def test_context_manager_frees(self):
        mt = MemoryTracker(capacity_bytes=50)
        with mt.allocate("scoped", 30):
            assert mt.current_bytes == 30
        assert mt.current_bytes == 0

    def test_context_manager_frees_on_exception(self):
        mt = MemoryTracker()
        with pytest.raises(RuntimeError):
            with mt.allocate("scoped", 30):
                raise RuntimeError("boom")
        assert mt.current_bytes == 0

    def test_unbounded_tracker(self):
        mt = MemoryTracker()
        mt.alloc("huge", 10**15)
        mt.alloc("larger", 10**18)  # no capacity, so never a DeviceMemoryError
        assert mt.current_bytes == 10**15 + 10**18

    def test_would_fit(self):
        mt = MemoryTracker(capacity_bytes=100)
        mt.alloc("a", 70)
        with pytest.raises(DeviceMemoryError):
            mt.alloc("b", 31)
        mt.alloc("c", 30)  # exactly fills the device
        assert mt.current_bytes == 100

    def test_events_ledger(self):
        mt = MemoryTracker()
        a = mt.alloc("x", 5)
        mt.free(a)
        assert mt.events == [("alloc", "x", 5), ("free", "x", 5)]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            MemoryTracker(capacity_bytes=0)

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_ledger_never_negative(self, sizes):
        """Property: any alloc/free interleaving keeps usage in [0, sum]."""
        mt = MemoryTracker()
        live = []
        for i, size in enumerate(sizes):
            if live and i % 3 == 0:
                mt.free(live.pop())
            else:
                live.append(mt.alloc(f"b{i}", size))
            assert 0 <= mt.current_bytes <= mt.peak_bytes


class TestLink:
    def test_message_time_eq2(self):
        link = Link(alpha_s=1e-6, bandwidth_bytes_per_s=1e9)
        assert link.message_time(1000) == pytest.approx(1e-6 + 1e-6)

    def test_zero_bytes_costs_alpha(self):
        link = Link(alpha_s=5e-6)
        assert link.message_time(0) == pytest.approx(5e-6)

    def test_beta_is_reciprocal_bandwidth(self):
        link = Link(bandwidth_bytes_per_s=2e9)
        assert link.beta_cost_s_per_byte == pytest.approx(0.5e-9)

    def test_rejects_negative_size(self):
        with pytest.raises(ConfigurationError):
            Link().message_time(-1)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            Link(bandwidth_bytes_per_s=0)


class TestNetwork:
    def test_single_worker_free(self):
        net = Network(num_workers=1)
        assert net.alltoall_time(100) == 0.0
        assert net.broadcast_time(100) == 0.0

    def test_alltoall_scales_with_p(self):
        link = Link(alpha_s=0.0, bandwidth_bytes_per_s=1e9)
        t4 = Network(4, link).alltoall_time(1000)
        t8 = Network(8, link).alltoall_time(1000)
        assert t8 > t4

    def test_broadcast_log_steps(self):
        link = Link(alpha_s=1.0, bandwidth_bytes_per_s=1e30)
        assert Network(8, link).broadcast_time(1) == pytest.approx(3.0)
        assert Network(9, link).broadcast_time(1) == pytest.approx(4.0)

    def test_monotone_in_message_size(self):
        net = Network(4)
        assert net.alltoall_time(2000) > net.alltoall_time(1000)

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            Network(0)
