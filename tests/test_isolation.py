"""Regression tests for cross-test singleton isolation.

The FFT plan table :data:`~repro.fft.pruned_plan.PLANS` is process-wide
state: without the autouse ``_cold_plan_table`` fixture, a test that
warmed plans (or merely bumped the hit/miss counters) would leak that
state into every later test, hiding cold-start bugs and making
table-metric assertions order-dependent.  The two pipeline tests below run
back-to-back, both warm the table, and both assert they started cold —
whichever order the suite (or a shuffled CI run) executes them in.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import LowCommConvolution3D
from repro.fft import pruned_plan
from repro.kernels.gaussian import GaussianKernel


def _run_small_pipeline() -> None:
    spectrum = GaussianKernel(n=16, sigma=1.5).spectrum()
    pipeline = LowCommConvolution3D(16, 4, spectrum)
    field = np.zeros((16, 16, 16))
    field[4:12, 4:12, 4:12] = 1.0
    pipeline.run_serial(field)


def _assert_cold_then_warm() -> None:
    table = pruned_plan.PLANS
    assert len(table) == 0, "plan table leaked plans from a prior test"
    assert table.hits == 0 and table.misses == 0, (
        "plan table leaked metrics from a prior test"
    )
    pruned_plan.plan_for(16, range(4), range(4), range(4))
    assert len(pruned_plan.PLANS) >= 1  # this test itself warmed it


def test_pipeline_sees_cold_caches_first() -> None:
    _assert_cold_then_warm()
    _run_small_pipeline()


def test_pipeline_sees_cold_caches_second() -> None:
    # identical twin: passes only if the previous test's warmth was reset
    _assert_cold_then_warm()
    _run_small_pipeline()
