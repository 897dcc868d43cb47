"""FFT substrate: from-scratch transforms plus a numpy-backed fast path.

The paper's method never computes a distributed FFT; it computes *local*
staged FFTs whose stage boundaries host callbacks (padding on the way in,
compression on the way out).  This package provides:

- :mod:`repro.fft.radix2` / :mod:`repro.fft.bluestein` — a complete 1D
  complex FFT for any length, written from scratch (iterative radix-2 with
  Bluestein's chirp-z fallback), vectorized over batch dimensions.
- :mod:`repro.fft.real` — real-input transforms (the Green's function has a
  real-valued spectrum, so real transforms halve the working set).
- :mod:`repro.fft.fftn` — N-D transforms as sequences of 1D stage sweeps
  over any registered backend.
- :mod:`repro.fft.pruned` — the pruned-input staged 3D transform of the
  paper's Step 2: a k^3 cube is transformed to an N x N x k slab (x,y
  stages) and then pencil-batched in z, never materializing the padded
  input.  Includes the Hermitian (rfft-based) half-spectrum variants and
  the reusable :class:`~repro.fft.pruned.PadScratch` pad buffers.
- :mod:`repro.fft.pruned_plan` — :class:`~repro.fft.pruned_plan.PrunedPlan`
  precomputes all data-independent state of a pruned staged convolution
  (the per-axis inverse strategy — partial-iDFT GEMM or inverse FFT + take
  — and its matrices, pad scratch, resolved backend, pencil indices);
  :class:`~repro.fft.pruned_plan.PlanCache` shares plans across congruent
  sampling patterns.
- :mod:`repro.fft.backend` — backend registry (``"native"`` = ours,
  ``"numpy"`` = :mod:`numpy.fft`); everything downstream is
  backend-agnostic.
"""

from repro.fft.backend import (
    available_backends,
    backend_rfft,
    get_backend,
    register_backend,
)
from repro.fft.dft import fft1d, ifft1d
from repro.fft.fftn import fft3, fftn, ifft3, ifftn
from repro.fft.plan import FFTPlan, plan_fft3, plan_pruned_conv
from repro.fft.pruned import (
    PadScratch,
    hermitian_partial_idft,
    hermitian_partial_idft_matrix,
    hermitian_real_idft_matrix,
    partial_idft,
    partial_idft_matrix,
    pencil_batches,
    pruned_fft3,
    pruned_input_fft,
    pruned_input_rfft,
    rslab_from_subcube,
    slab_from_subcube,
)
from repro.fft.pruned_plan import (
    FFT_CROSSOVER,
    InverseStrategy,
    PlanCache,
    PrunedPlan,
    default_cache,
    get_plan,
    inverse_strategy,
    reset_default_cache,
)
from repro.fft.real import half_length, hermitian_weights, irfft1d, rfft1d
from repro.fft.realconv import half_spectrum, half_spectrum_bytes, rfft_convolve

__all__ = [
    "rfft_convolve",
    "half_spectrum",
    "half_spectrum_bytes",
    "half_length",
    "hermitian_weights",
    "available_backends",
    "get_backend",
    "register_backend",
    "backend_rfft",
    "fft1d",
    "ifft1d",
    "rfft1d",
    "irfft1d",
    "fftn",
    "ifftn",
    "fft3",
    "ifft3",
    "pruned_fft3",
    "pencil_batches",
    "pruned_input_fft",
    "pruned_input_rfft",
    "slab_from_subcube",
    "rslab_from_subcube",
    "partial_idft",
    "partial_idft_matrix",
    "hermitian_partial_idft",
    "hermitian_partial_idft_matrix",
    "hermitian_real_idft_matrix",
    "PadScratch",
    "PrunedPlan",
    "InverseStrategy",
    "inverse_strategy",
    "FFT_CROSSOVER",
    "PlanCache",
    "get_plan",
    "default_cache",
    "reset_default_cache",
    "FFTPlan",
    "plan_fft3",
    "plan_pruned_conv",
]
