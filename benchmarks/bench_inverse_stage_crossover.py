"""Inverse-stage crossover: partial-iDFT GEMM vs full inverse FFT + take.

``PrunedPlan`` computes a pruned inverse to ``m`` of ``n`` outputs either as
a matrix product with the ``m`` selected iDFT rows (``8*n*m`` flops a
pencil) or as a full inverse FFT followed by a take (``5*n*log2(n)``
whatever ``m`` is), and picks per axis from the shape alone:
``m > FFT_CROSSOVER * log2(n)`` goes to the FFT.  This script is where that
constant comes from.  For n in {32, 64, 128, 256} x m/n in {0.25 ... 1.0} it
times both forms of

- the **z stage**: ``idft_z`` on one ``(B, n)`` pencil batch at the
  pipeline's default B (:func:`~repro.fft.pruned.default_pencil_batch`:
  512 at n=32, 256 at n=64, n from n=128 up), contiguous along the
  transformed axis;
- the **y stage**: ``idft_y`` on a ``(rows, n, m)`` half-spectrum block
  (rows = n//2 + 1, capped so the block stays under 32 MiB; both forms work
  one row at a time, so the per-row time does not depend on the cap),
  strided along the transformed axis,

through the plan's own methods, each plan put on the strategy by hand.

Run directly (``PYTHONPATH=src python benchmarks/bench_inverse_stage_crossover.py``,
BLAS pinned to one thread as ``bench/run.py`` pins it) it prints the table,
the measured crossover per (n, stage), and every point more than 25 % away
from that crossover where the committed rule picks the slower form.  Under
pytest it times nothing: it checks that the two forms agree numerically at
every point and that ``plan.strategy`` is what the rule says, so CI gates no
wall time.  The table this printed is in EXPERIMENTS.md beside the constant.
"""

import math
import os
import time

if __name__ == "__main__":  # before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np

from repro.fft.pruned import default_pencil_batch, half_length
from repro.fft.pruned_plan import FFT_CROSSOVER, InverseStrategy, PrunedPlan

SIZES = (32, 64, 128, 256)
FRACTIONS = (0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)
STAGES = ("z", "y")
Y_BLOCK_BYTES = 32 << 20


def retained(n: int, m: int) -> np.ndarray:
    """``m`` sorted coordinates spread over ``[0, n)``."""
    return np.unique(np.floor(np.arange(m) * (n / m)).astype(np.intp))


def stage_input(n: int, m: int, stage: str, rng: np.random.Generator) -> np.ndarray:
    if stage == "z":
        shape = (default_pencil_batch(n), n)
    else:
        rows = max(1, min(half_length(n), Y_BLOCK_BYTES // (16 * n * m)))
        shape = (rows, n, m)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def forced_plan(n: int, m: int, form: str) -> PrunedPlan:
    """A plan retaining ``m`` coordinates per axis with its z and y stages
    on ``form``, whatever the rule would have picked."""
    coords = retained(n, m)
    plan = PrunedPlan(n, coords, coords, coords)
    plan._set_strategy(InverseStrategy(z=form, y=form))
    return plan


def run_stage(plan: PrunedPlan, stage: str, data: np.ndarray) -> np.ndarray:
    return plan.idft_z(data) if stage == "z" else plan.idft_y(data)


def rule_form(n: int, m: int) -> str:
    return "fft" if m > FFT_CROSSOVER * math.log2(n) else "gemm"


def points():
    for n in SIZES:
        for frac in FRACTIONS:
            yield n, int(round(frac * n))


# -- under pytest: numerics and the rule, no clock ------------------------------
def test_forms_agree_and_strategy_follows_the_rule(benchmark):
    rng = np.random.default_rng(20)

    def check_all():
        checked = 0
        for n, m in points():
            if n > 128:
                continue  # same code path; keeps the CI step small
            coords = retained(n, m)
            picked = PrunedPlan(n, coords, coords, coords).strategy
            assert picked == InverseStrategy(z=rule_form(n, m), y=rule_form(n, m)), (
                n, m, picked,
            )
            for stage in STAGES:
                data = stage_input(n, m, stage, rng)
                gemm = run_stage(forced_plan(n, m, "gemm"), stage, data)
                fft = run_stage(forced_plan(n, m, "fft"), stage, data)
                scale = np.abs(gemm).max()
                assert np.abs(gemm - fft).max() <= 1e-12 * scale, (n, m, stage)
                checked += 1
        return checked

    assert benchmark(check_all) == 3 * len(FRACTIONS) * len(STAGES)


# -- run directly: the table ------------------------------------------------------
def best_of(fn, seconds: float = 0.15, rounds: int = 5) -> float:
    """Minimum over ``rounds`` of the mean call time in a ``seconds`` burst:
    the floor is what the crossover compares, and it repeats where a median
    drifts with this box's load."""
    fn()
    best = math.inf
    for _ in range(rounds):
        calls, t0 = 0, time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds / rounds:
                break
        best = min(best, elapsed / calls)
    return best


def measured_crossover(ms, ratios):
    """``m`` above which the FFT wins at every measured point: where
    gemm/fft time crosses 1 for the last time, linear between the bracketing
    points; ``None`` when one form wins at every measured ``m``."""
    for i in range(len(ms) - 1, 0, -1):
        r0, r1 = ratios[i - 1], ratios[i]
        if r0 < 1.0 <= r1:
            return ms[i - 1] + (1.0 - r0) * (ms[i] - ms[i - 1]) / (r1 - r0)
    return None


def main() -> None:
    rng = np.random.default_rng(20)
    print(f"FFT_CROSSOVER = {FFT_CROSSOVER}  (rule: fft when m > FFT_CROSSOVER * log2 n)")
    print(f"{'n':>4} {'m':>4} {'m/n':>6} stage {'gemm us':>10} {'fft us':>10} "
          f"{'gemm/fft':>8}  faster  rule")
    rows = {}
    for n, m in points():
        for stage in STAGES:
            data = stage_input(n, m, stage, rng)
            times = {}
            for form in ("gemm", "fft"):
                plan = forced_plan(n, m, form)
                times[form] = best_of(lambda: run_stage(plan, stage, data))
            ratio = times["gemm"] / times["fft"]
            faster = "gemm" if ratio < 1.0 else "fft"
            rows.setdefault((n, stage), []).append((m, ratio, faster))
            print(f"{n:>4} {m:>4} {m / n:>6.3f} {stage:>5} {1e6 * times['gemm']:>10.1f} "
                  f"{1e6 * times['fft']:>10.1f} {ratio:>8.2f}  {faster:>6}  {rule_form(n, m)}")
    print()
    print(f"{'n':>4} stage  measured crossover m   rule threshold m")
    wrong = []
    for (n, stage), entries in rows.items():
        ms = [m for m, _r, _f in entries]
        cross = measured_crossover(ms, [r for _m, r, _f in entries])
        shown = f"{cross:.1f}" if cross is not None else f"none in [{ms[0]}, {ms[-1]}]"
        print(f"{n:>4} {stage:>5}  {shown:>20}   {FFT_CROSSOVER * math.log2(n):.1f}")
        for m, ratio, faster in entries:
            far = cross is None or abs(m - cross) > 0.25 * cross
            if far and faster != rule_form(n, m):
                wrong.append((n, stage, m, ratio, faster))
    print()
    if wrong:
        print("rule picks the slower form, > 25 % from the measured crossover:")
        for n, stage, m, ratio, faster in wrong:
            print(f"  n={n} stage={stage} m={m}: gemm/fft = {ratio:.2f}, "
                  f"{faster} is faster, rule says {rule_form(n, m)}")
    else:
        print("rule picks the faster form at every point > 25 % from the measured crossover")


if __name__ == "__main__":
    main()
