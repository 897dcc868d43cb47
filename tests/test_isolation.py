"""Regression tests for cross-test singleton isolation.

The default :class:`~repro.fft.pruned_plan.PlanCache` that
:func:`~repro.fft.pruned_plan.default_cache` returns is process-wide
state: before the autouse ``_cold_plan_cache`` fixture existed, a test
that warmed plans (or merely bumped the hit/miss metrics) leaked that
state into every later test, hiding cold-start bugs and making
cache-metric assertions order-dependent.  The two pipeline tests below run back-to-back, both
warm the cache, and both assert they started cold — whichever order the
suite (or a shuffled CI run) executes them in.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import LowCommConvolution3D
from repro.fft.pruned_plan import default_cache, reset_default_cache
from repro.kernels.gaussian import GaussianKernel


def _run_small_pipeline() -> None:
    spectrum = GaussianKernel(n=16, sigma=1.5).spectrum()
    pipeline = LowCommConvolution3D(16, 4, spectrum)
    field = np.zeros((16, 16, 16))
    field[4:12, 4:12, 4:12] = 1.0
    pipeline.run_serial(field)


def _assert_cold_then_warm() -> None:
    cache = default_cache()
    assert len(cache) == 0, "default plan cache leaked plans from a prior test"
    assert cache.hits == 0 and cache.misses == 0, (
        "default plan cache leaked metrics from a prior test"
    )
    default_cache().get(16, range(4), range(4), range(4))
    assert len(default_cache()) >= 1  # this test itself warmed it


def test_pipeline_sees_cold_caches_first() -> None:
    _assert_cold_then_warm()
    _run_small_pipeline()


def test_pipeline_sees_cold_caches_second() -> None:
    # identical twin: passes only if the previous test's warmth was reset
    _assert_cold_then_warm()
    _run_small_pipeline()


def test_reset_returns_the_new_live_cache() -> None:
    warmed = default_cache().get(16, range(4), range(4), range(4))
    assert default_cache().misses == 1
    fresh = reset_default_cache()
    assert fresh is default_cache()
    assert len(fresh) == 0 and fresh.hits == 0 and fresh.misses == 0
    # the old plan object stays usable; the cache just forgot it
    assert warmed.n == 16
