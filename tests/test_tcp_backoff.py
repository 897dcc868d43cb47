"""TcpTransport bootstrap dialing: capped exponential backoff + jitter.

A standing pool forms its mesh from agents that start minutes apart, so
the dialer must tolerate peers whose listeners do not exist yet.  These
tests pin the backoff schedule itself (:func:`dial_backoff_s`) and the
retry loop (:func:`dial_with_backoff`) on a manual clock with a fake
``connect`` — no sockets, no sleeps.
"""

import random

import pytest

from repro.dist.tcp import (
    DIAL_BASE_S,
    DIAL_CAP_S,
    dial_backoff_s,
    dial_with_backoff,
    normalize_endpoints,
)
from repro.errors import ConfigurationError, TransportError
from repro.util.clock import ManualClock


class TestDialBackoffSchedule:
    def test_doubles_per_attempt_without_jitter(self):
        rng = random.Random(0)
        delays = [
            dial_backoff_s(a, rng, base=0.01, cap=10.0, jitter=0.0)
            for a in range(5)
        ]
        assert delays == [0.01, 0.02, 0.04, 0.08, 0.16]

    def test_cap_clamps_late_attempts(self):
        rng = random.Random(0)
        assert dial_backoff_s(50, rng, base=0.02, cap=1.0, jitter=0.0) == 1.0

    def test_defaults_start_at_base_and_never_exceed_cap(self):
        rng = random.Random(7)
        for attempt in range(20):
            delay = dial_backoff_s(attempt, rng)
            assert 0.0 < delay <= DIAL_CAP_S
        assert dial_backoff_s(0, random.Random(7)) <= DIAL_BASE_S

    def test_jitter_stays_in_band(self):
        # jitter=0.5 scales each raw delay into [raw/2, raw]
        rng = random.Random(123)
        for attempt in range(10):
            raw = min(1.0, 0.02 * 2**attempt)
            delay = dial_backoff_s(attempt, rng, jitter=0.5)
            assert raw * 0.5 <= delay <= raw

    def test_deterministic_per_seed(self):
        a = [dial_backoff_s(i, random.Random(42)) for i in range(5)]
        b = [dial_backoff_s(i, random.Random(42)) for i in range(5)]
        assert a == b


class TestDialWithBackoff:
    def test_returns_socket_once_listener_appears(self):
        clock = ManualClock()
        attempts = []

        def connect(endpoint, timeout):
            attempts.append(clock.now())
            if len(attempts) < 4:
                raise ConnectionRefusedError("not listening yet")
            return "fake-socket"

        sock = dial_with_backoff(
            ("127.0.0.1", 9999),
            rank=0,
            dst=1,
            deadline=clock.now() + 30.0,
            clock=clock,
            connect=connect,
        )
        assert sock == "fake-socket"
        assert len(attempts) == 4
        # each retry waited on the clock: attempt times strictly increase
        assert attempts == sorted(attempts)
        assert attempts[0] == 0.0 and attempts[-1] > 0.0

    def test_delays_grow_exponentially_between_retries(self):
        clock = ManualClock()
        times = []

        def connect(endpoint, timeout):
            times.append(clock.now())
            raise ConnectionRefusedError("never")

        with pytest.raises(TransportError):
            dial_with_backoff(
                ("127.0.0.1", 9999),
                rank=1,
                dst=2,
                deadline=clock.now() + 0.5,
                clock=clock,
                connect=connect,
            )
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) >= 3
        # jitter keeps any gap within its attempt's band, and the band
        # doubles: gap k is always below the *undithered* next delay
        for k, gap in enumerate(gaps):
            raw = min(DIAL_CAP_S, DIAL_BASE_S * 2**k)
            assert raw * 0.5 <= gap <= raw

    def test_timeout_raises_transport_error_naming_the_pair(self):
        clock = ManualClock()

        def connect(endpoint, timeout):
            raise ConnectionRefusedError("nope")

        with pytest.raises(TransportError, match=r"rank 3.*rank 7.*10\.0\.0\.1:4242"):
            dial_with_backoff(
                ("10.0.0.1", 4242),
                rank=3,
                dst=7,
                deadline=clock.now() + 1.0,
                clock=clock,
                connect=connect,
            )

    def test_deterministic_schedule_per_rank_pair(self):
        def run(rank, dst):
            clock = ManualClock()
            times = []

            def connect(endpoint, timeout):
                times.append(clock.now())
                raise ConnectionRefusedError("never")

            with pytest.raises(TransportError):
                dial_with_backoff(
                    ("127.0.0.1", 1),
                    rank=rank,
                    dst=dst,
                    deadline=1.0,
                    clock=clock,
                    connect=connect,
                )
            return times

        assert run(0, 1) == run(0, 1)  # reproducible per pair
        assert run(0, 1) != run(1, 0)  # decorrelated across pairs


class TestNormalizeEndpoints:
    def test_bare_ports_mean_localhost(self):
        assert normalize_endpoints([5000, 5001]) == [
            ("127.0.0.1", 5000),
            ("127.0.0.1", 5001),
        ]

    def test_pairs_pass_through_and_mix_with_ports(self):
        assert normalize_endpoints([("10.0.0.2", 5000), 5001]) == [
            ("10.0.0.2", 5000),
            ("127.0.0.1", 5001),
        ]

    def test_rejects_garbage(self):
        with pytest.raises(ConfigurationError, match="endpoint"):
            normalize_endpoints([object()])
