"""FFT substrate: the paper's staged, pruned transform over :mod:`numpy.fft`.

The paper's method never computes a distributed FFT; it computes *local*
staged FFTs whose stage boundaries host callbacks (padding on the way in,
compression on the way out).  The 1D transforms underneath are
:mod:`numpy.fft` (pocketfft), as the paper's are cuFFT / FFTW; the stage
boundaries are what this package provides:

- :mod:`repro.fft.pruned` — the pruned-input staged 3D transform of the
  paper's Step 2: a k^3 cube is transformed to an N x N x k slab (x,y
  stages) and then pencil-batched in z, never materializing the padded
  input.  The slab is the Hermitian (rfft-based) half spectrum; the
  module also holds the reusable :class:`~repro.fft.pruned.PadScratch` pad
  buffers a caller owns, and the one pencil index pair of each ``n``.
- :mod:`repro.fft.pruned_plan` — :class:`~repro.fft.pruned_plan.PrunedPlan`
  precomputes all data-independent state of a pruned staged convolution
  (the per-axis inverse strategy — partial-iDFT GEMM or inverse FFT + take
  — and its matrices); :func:`~repro.fft.pruned_plan.plan_for` reads plans
  from the one process-wide table, so congruent sampling patterns share a
  plan whichever pipeline asks.
"""

from repro.fft.pruned import (
    PadScratch,
    half_length,
    hermitian_partial_idft,
    hermitian_partial_idft_matrix,
    hermitian_real_idft_matrix,
    hermitian_weights,
    partial_idft,
    partial_idft_matrix,
    pencil_batches,
    pruned_input_fft,
    pruned_input_rfft,
    rslab_from_subcube,
)
from repro.fft.pruned_plan import (
    FFT_CROSSOVER,
    InverseStrategy,
    PrunedPlan,
    inverse_strategy,
    plan_for,
)

__all__ = [
    "half_length",
    "hermitian_weights",
    "pencil_batches",
    "pruned_input_fft",
    "pruned_input_rfft",
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
    "plan_for",
]
