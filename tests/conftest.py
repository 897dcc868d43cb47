"""Shared fixtures for the repro test suite.

Two suite-wide behaviours live here besides the data fixtures:

- **Singleton isolation** — the process-wide FFT plan table
  (:data:`repro.fft.pruned_plan.PLANS`: plans and hit/miss counters) is
  swapped for a fresh one around every test by an autouse fixture, so no
  test observes plans warmed by another.  ``test_isolation.py``
  regression-tests this.
- **Seed-randomized ordering** — setting ``REPRO_TEST_SHUFFLE_SEED=<int>``
  shuffles test order deterministically (no plugin needed), which is how
  CI's tier-2 job surfaces hidden ordering assumptions.  The seed is
  echoed in the run header and again after a failing run so any failure
  is reproducible with the same seed.
"""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.fft import pruned_plan
from repro.kernels.gaussian import GaussianKernel
from repro.util.lru import WeightedLRU

_SHUFFLE_ENV = "REPRO_TEST_SHUFFLE_SEED"


def pytest_collection_modifyitems(config, items):
    seed = os.environ.get(_SHUFFLE_ENV)
    if not seed:
        return
    random.Random(int(seed)).shuffle(items)


def pytest_report_header(config):
    seed = os.environ.get(_SHUFFLE_ENV)
    if seed:
        return f"repro: test order shuffled ({_SHUFFLE_ENV}={seed})"
    return None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seed = os.environ.get(_SHUFFLE_ENV)
    if seed and exitstatus != 0:
        terminalreporter.write_line(
            f"[repro] shuffled run failed — reproduce the order with "
            f"{_SHUFFLE_ENV}={seed}"
        )


@pytest.fixture(autouse=True)
def _cold_plan_table(monkeypatch):
    """Every test runs on a cold plan table of the production bound."""
    bound = pruned_plan.PLANS.max_weight
    monkeypatch.setattr(pruned_plan, "PLANS", WeightedLRU(max_weight=bound))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_kernel() -> GaussianKernel:
    """A 16^3 Gaussian kernel for fast convolution tests."""
    return GaussianKernel(n=16, sigma=1.5)


@pytest.fixture
def small_spectrum(small_kernel) -> np.ndarray:
    return small_kernel.spectrum()
