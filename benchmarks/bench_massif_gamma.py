"""One MASSIF Gamma evaluation: Algorithm 1, Algorithm 2 and the scalar path.

The step both MASSIF loops repeat is ``Delta eps = ifft(Gamma_hat : fft(sigma))``
on a ``(3, 3, n, n, n)`` stress field.  This script times one such evaluation
of a dense symmetric ``sigma`` three ways at one shape:

- **Alg 1** — ``MassifSolver._gamma_correction``: nine dense ``n^3`` FFTs each
  way around the on-the-fly contraction;
- **Alg 2** — ``LowCommMassifSolver._gamma_correction``: every sub-domain's
  six components through the pruned staged transform, the contraction per
  pencil batch, compressed onto the octree pattern and accumulated;
- **scalar x 6** — six ``LowCommConvolution3D.run_serial`` solves of one
  component each under a Gaussian kernel: what the product's scalar path
  charges for the same transforms without the tensor contraction.

Alg 2 is reported cold (first evaluation: FFT plans, sampling patterns and
reconstruction plans are built) and warm (the evaluation every later
iteration of the solve pays).

Run directly (``PYTHONPATH=src python benchmarks/bench_massif_gamma.py``, BLAS
pinned to one thread as ``bench/run.py`` pins it) it prints the EXPERIMENTS.md
E9 table at n = 64, k = 16, ``flat:2``.  Under pytest it times nothing: it
checks that Alg 2 at r = 1 equals Alg 1 to 1e-10 at n = 16, so CI gates no
wall time.
"""

import os
import time

if __name__ == "__main__":  # before numpy loads its BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np

from repro.analysis.tables import format_table
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import SamplingPolicy
from repro.kernels.gaussian import GaussianKernel
from repro.kernels.green_massif import SYM_COMPONENTS, LameParameters
from repro.massif.elasticity import StiffnessField, isotropic_stiffness
from repro.massif.lowcomm_solver import LowCommMassifSolver
from repro.massif.microstructure import sphere_inclusion
from repro.massif.solver import MassifSolver


def two_phase(n: int) -> StiffnessField:
    phases = [
        isotropic_stiffness(LameParameters.from_young_poisson(young, 0.3))
        for young in (1.0, 5.0)
    ]
    return StiffnessField(sphere_inclusion(n, radius=0.3 * n), phases)


def dense_sigma(n: int, seed: int = 0) -> np.ndarray:
    """A symmetric stress field with no all-zero sub-domain."""
    sigma = np.random.default_rng(seed).standard_normal((3, 3, n, n, n))
    return sigma + sigma.transpose(1, 0, 2, 3, 4)


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def table(n: int, k: int, rate: int) -> str:
    stiffness = two_phase(n)
    sigma = dense_sigma(n)
    policy = SamplingPolicy.flat_rate(rate)

    exact, alg1_s = timed(MassifSolver(stiffness)._gamma_correction, sigma)
    lowcomm = LowCommMassifSolver(stiffness, k=k, policy=policy)
    _cold, cold_s = timed(lowcomm._gamma_correction, sigma)
    approx, warm_s = timed(lowcomm._gamma_correction, sigma)

    scalar = LowCommConvolution3D(
        n, k, GaussianKernel(n=n, sigma=2.0).spectrum(), policy
    )
    scalar.run_serial(sigma[0, 0])  # warm its plans, as Alg 2's second run is
    _six, scalar_s = timed(
        lambda: [scalar.run_serial(sigma[i, j]) for i, j in SYM_COMPONENTS]
    )

    rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
    return format_table(
        ["path", "seconds"],
        [
            ["Alg 1 (dense)", f"{alg1_s:.2f}"],
            ["Alg 2, cold", f"{cold_s:.2f}"],
            ["Alg 2, warm", f"{warm_s:.2f}"],
            ["scalar run_serial x 6, warm", f"{scalar_s:.2f}"],
            ["Alg 2 vs Alg 1, rel l2", f"{rel:.3e}"],
        ],
        title=f"one Gamma evaluation, n={n} k={k} flat:{rate}, dense sigma",
    )


def test_lossless_gamma_matches_alg1():
    n, k = 16, 8
    stiffness = two_phase(n)
    sigma = dense_sigma(n)
    exact = MassifSolver(stiffness)._gamma_correction(sigma)
    approx = LowCommMassifSolver(
        stiffness, k=k, policy=SamplingPolicy.flat_rate(1)
    )._gamma_correction(sigma)
    assert np.abs(approx - exact).max() < 1e-10


if __name__ == "__main__":
    print(table(64, 16, 2))
