"""E8 — §5.4 batch parameter B: speedup from larger pencil batches.

Paper observations: doubling B gives +19.9% at N=256 (512 -> 1024), +7.35%
at N=1024 (1024 -> 2048), and 5-7% at N=2048 — "for smaller sizes, the
choice of B matters more".  The launch-overhead model reproduces the
*shape* (gains shrink with N); the magnitude at N=2048 under-shoots, which
EXPERIMENTS.md records as a known model deviation.

Two more checks run the real pipeline.  B only re-schedules work, so
results are bitwise identical at every B.  And a warm ``run_serial`` is
timed at B in {n, 4n, the default, the whole half slab} on the three
benchmark shapes: the table :data:`repro.fft.pruned.PENCIL_BATCH_BYTES`,
the byte budget behind the default B, was chosen from.  Run directly
(``PYTHONPATH=src python benchmarks/bench_b_param.py``, BLAS pinned to one
thread as ``bench/run.py`` pins it) it times more rounds; under pytest it
times a few and asserts only that results are bitwise across B.
"""

import os
import sys
import time

if __name__ == "__main__":  # before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np
from conftest import emit

from repro.analysis.experiments import run_batch_sweep
from repro.core.local_conv import LocalConvolution
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy, parse_policy
from repro.fft.pruned import default_pencil_batch, half_length
from repro.kernels.gaussian import GaussianKernel

#: (n, k, policy, half-cube field): the shapes of the ``serve_open_loop``,
#: ``serial_banded_dense`` and ``serial_flat_n128`` benchmark workloads
SHAPES = (
    (32, 8, "flat:2", True),
    (64, 16, "banded", False),
    (128, 32, "flat:2", True),
)


def test_batch_sweep_model(benchmark):
    report = benchmark(run_batch_sweep)
    emit(report.render())
    gains = [r.measured for r in report.rows]
    assert gains[0] > gains[1] > gains[2]  # the paper's shape
    assert gains[0] > 10  # double-digit gain at N=256


def test_batch_result_invariance(benchmark):
    """B is pure scheduling: any batch size gives the identical result."""
    n, k = 32, 8
    spec = GaussianKernel(n=n, sigma=1.5).spectrum()
    sub = np.ones((k, k, k))
    pol = SamplingPolicy.flat_rate(2)

    def run_all():
        outs = []
        for batch in (16, 128, 1024):
            lc = LocalConvolution(n, spec, pol, batch=batch)
            outs.append(lc.convolve(sub, (8, 8, 8)).values)
        return outs

    outs = benchmark(run_all)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])
    emit("B in {16, 128, 1024}: bitwise identical results")


def field_for(n: int, half: bool) -> np.ndarray:
    """Seeded noise; ``half`` keeps only the central half-cube, so the
    outer sub-domains are zero and skipped."""
    field = np.random.default_rng(1).standard_normal((n, n, n))
    if half:
        q = n // 4
        masked = np.zeros_like(field)
        masked[q : n - q, q : n - q, q : n - q] = field[q : n - q, q : n - q, q : n - q]
        field = masked
    return field


def measured_sweep(rounds: int) -> list:
    """Median warm ``run_serial`` seconds per (shape, B), the B values timed
    in alternating order round by round; results checked bitwise."""
    rows = []
    for n, k, policy, half in SHAPES:
        spec = GaussianKernel(n=n, sigma=2.0).spectrum()
        field = field_for(n, half)
        batches = [n, 4 * n, default_pencil_batch(n), half_length(n) * n]
        pipes = [LowCommConvolution3D(n, k, spec, parse_policy(policy), batch=b)
                 for b in batches]
        expected = pipes[0].run_serial(field).approx
        for pipe in pipes[1:]:
            assert np.array_equal(pipe.run_serial(field).approx, expected)
        times = [[] for _ in batches]
        for r in range(rounds):
            order = range(len(batches)) if r % 2 == 0 else reversed(range(len(batches)))
            for i in order:
                t0 = time.perf_counter()
                pipes[i].run_serial(field)
                times[i].append(time.perf_counter() - t0)
        medians = [float(np.median(t)) for t in times]
        rows.append((n, k, policy, half, batches, medians))
    return rows


def render(rows: list) -> str:
    lines = [
        "E8 measured: warm run_serial (ms, median) at B = n, 4n, default, whole slab",
        f"{'n':>4} {'k':>3} {'policy':>7} {'field':>5}   "
        f"{'B':>5} {'ms':>8} {'vs B=n':>7}",
    ]
    for n, k, policy, half, batches, medians in rows:
        for label, b, t in zip(("n", "4n", "default", "whole"), batches, medians):
            lines.append(
                f"{n:>4} {k:>3} {policy:>7} {'half' if half else 'dense':>5}   "
                f"{b:>5} {1e3 * t:>8.1f} {medians[0] / t:>6.2f}x  ({label})"
            )
    return "\n".join(lines)


def test_measured_batch_sweep(benchmark):
    """Times are printed, not asserted: CI gates no wall time."""
    rows = benchmark.pedantic(measured_sweep, args=(3,), rounds=1, iterations=1)
    emit(render(rows))
    assert [row[4][2] for row in rows] == [512, 256, 128]


if __name__ == "__main__":
    emit(render(measured_sweep(int(sys.argv[1]) if len(sys.argv) > 1 else 9)))
