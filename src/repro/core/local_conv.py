"""Local FFT-based convolution with in-pipeline compression (paper Step 2-3).

This is the operation Fig 2 draws inside one worker:

1. the ``k^3`` sub-domain is transformed to an ``N x N x k`` slab (2D
   pruned-input FFT; zero padding stays implicit in the 1D calls);
2. the slab's z-pencils are processed in batches of ``B``: forward 1D FFT
   (pruned input), pointwise multiply with the kernel spectrum pencil
   (cuFFT-callback role), and a *pruned-output* inverse that keeps the
   result only at the octree-retained z coordinates — the compression
   callback, so the ``N^3`` cube never materializes.  Unless the caller
   names ``B``, it is as many pencils as fit a fixed byte budget
   (:func:`~repro.fft.pruned.default_pencil_batch`);
3. the remaining inverse y and x stages are equally pruned to the
   octree-retained coordinate sets, the intermediate shrinking each stage;
4. the octree samples are gathered from the final box into a
   :class:`~repro.octree.compress.CompressedField`, through the pattern's
   cached :attr:`~repro.octree.sampling.SamplingPattern.box_gather_index`.

All data-independent state (how each inverse stage is computed — a
partial-iDFT matrix product while few coordinates are retained, a full
inverse FFT plus a take of the retained ones past the plan's crossover —
and the matrices that needs) lives in a
:class:`~repro.fft.pruned_plan.PrunedPlan`, built once per pattern in the
process (:func:`~repro.fft.pruned_plan.plan_for`) and shared by every
congruent sub-domain of every convolution.  The pad buffers the forward
stages fill are each convolution's own, so two convolutions may run one
plan at once.

The method needs a kernel whose spectrum is real and symmetric (paper
§3.1; Green's functions of self-adjoint operators), so a real field has
a real result and the whole staged transform runs on the ``n//2 + 1``
non-redundant x-frequency rows: rfft-based slab, half the z-pencils and
pointwise multiplies, and a Hermitian-aware final x stage — half the
flops and half the ``8*N*N*k`` slab working set of Table 1.  This is the
only path: a dense spectrum that fails
:func:`~repro.kernels.properties.spectrum_is_hermitian_real` is rejected
with a :class:`~repro.errors.ConfigurationError` at construction.

**Components and the pointwise seam.**  ``sub`` may be a ``(C, k, k, k)``
stack of components over one box: it runs the same stages (one slab call,
one z-stage call per pencil batch, one y stage) and comes back as ``C``
compressed fields on one pattern.  Stages keep per-component GEMM and FFT
shapes, so component ``c`` is bitwise the one-component call on
``sub[c]``.  The one step that differs between callers is the pointwise
one (PAPER.md §6's sub-plan): the scalar kernel multiply by default, or a
:class:`PencilOperator` that maps the ``(C, B, n)`` pencil batch and may
mix components (MASSIF's ``Gamma_hat : tau``,
:func:`repro.kernels.green_massif.gamma_pencil_operator`), or evaluate a
kernel's pencils on the fly (the paper's "computed on-the-fly during
convolution" mode).  An operator must commute with the conjugate mirror —
``op(conj(tau(-xi)))(-xi) == conj(op(tau)(xi))``, true of any contraction
whose coefficients are real and even in ``xi`` — so that a real input has
a real result and the ``n//2 + 1`` stored x rows suffice.

An optional :class:`~repro.cluster.memory.MemoryTracker` is charged for
every buffer, so running this on a simulated GPU reproduces the
memory-capacity behaviour of Tables 2 and 4 with the *real* allocation
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.memory import MemoryTracker
from repro.errors import ConfigurationError, ShapeError
from repro.fft.pruned import (
    PadScratch,
    default_pencil_batch,
    pencil_batches,
    pencil_indices,
)
from repro.fft.pruned_plan import PrunedPlan, plan_for
from repro.kernels.properties import check_hermitian_real
from repro.core.policy import SamplingPolicy
from repro.octree.compress import CompressedField
from repro.octree.sampling import SamplingPattern
from repro.util.validation import check_positive_int

COMPLEX_BYTES = 16
REAL_BYTES = 8


@dataclass(frozen=True)
class PencilOperator:
    """A pointwise step that is not a scalar multiply: ``apply(spec, ix,
    iy)`` maps the ``(C, B, n)`` z-spectra of a pencil batch, given each
    pencil's x and y frequency index, to the ``(C, B, n)`` result (it may
    overwrite ``spec``)."""

    apply: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


#: Kernel spectrum: the dense real, centrosymmetric ``n^3`` array, or a
#: :class:`PencilOperator` standing in for the multiply.
KernelSpectrum = Union[np.ndarray, PencilOperator]


class LocalConvolution:
    """Pruned, compressed convolution of one sub-domain on one worker.

    Parameters
    ----------
    n:
        Global grid edge.
    kernel_spectrum:
        Dense real, centrosymmetric ``n^3`` spectrum, or a
        :class:`PencilOperator` (see the module docstring for what it
        must commute with).
    policy:
        Compression hyperparameters (r-schedule).
    batch:
        z-pencil batch size ``B`` (paper §5.4); ``None`` sizes it per
        call from ``(n, components)`` by
        :func:`~repro.fft.pruned.default_pencil_batch`: as many pencils as
        fit 256 KiB of spectra, at least ``n`` and at most the half slab.
        ``B`` only schedules work; results are bitwise the same at any
        ``B`` of two pencils or more.
    memory:
        Optional device memory tracker to charge allocations against.
    """

    #: Every kernel runs the half-spectrum path; kept for callers that
    #: still read the flag.
    real_kernel = True

    def __init__(
        self,
        n: int,
        kernel_spectrum: KernelSpectrum,
        policy: SamplingPolicy,
        batch: Optional[int] = None,
        memory: Optional[MemoryTracker] = None,
    ):
        self.n = check_positive_int(n, "n")
        self.policy = policy
        self.batch = None if batch is None else check_positive_int(batch, "batch")
        self.memory = memory
        self._scratch = PadScratch()
        self._kernel_flat: Optional[np.ndarray] = None
        self._operator = None
        if isinstance(kernel_spectrum, PencilOperator):
            self._operator = kernel_spectrum.apply
            self._pencils = pencil_indices(n)
        else:
            spec = np.asarray(kernel_spectrum)
            if spec.shape != (n, n, n):
                raise ShapeError(
                    f"kernel spectrum shape {spec.shape} != ({n},)*3"
                )
            check_hermitian_real(spec)
            # Pencils multiply by the real part (the imaginary part is
            # zero), dropped here, not once per batch.  Flat (n*n, n)
            # view: pencil batches are contiguous row slices, so the
            # z-stage multiply slices without fancy indexing, and the half
            # rows [0, (n//2+1)*n) are a prefix of the layout.
            self._kernel_flat = np.real(spec).reshape(n * n, n)

    # -- public API -------------------------------------------------------------
    def convolve(
        self,
        sub: np.ndarray,
        corner: Sequence[int],
        pattern: Optional[SamplingPattern] = None,
    ) -> Union[CompressedField, List[CompressedField]]:
        """Convolve ``sub`` (at ``corner``) with the kernel; return the
        compressed result over the full grid.

        ``sub`` is one block, or a ``(C, ...)`` stack of components over
        the same box; a stack returns the list of its ``C`` compressed
        fields, all on one pattern.

        A block may be a rectangular box (the paper's "irregular
        partitions"); a matching ``pattern`` (e.g. from
        :func:`~repro.octree.sampling.build_box_pattern`) must then be
        supplied, since the policy's cubic band schedule does not apply.
        """
        sub, corner = self._validate(sub, corner)
        kx, ky, kz = sub.shape[-3:]
        if pattern is None:
            if not (kx == ky == kz):
                raise ConfigurationError(
                    "rectangular sub-domains need an explicit sampling "
                    "pattern (see build_box_pattern)"
                )
            pattern = self.policy.pattern_for(self.n, kx, corner)
        plan = plan_for(
            self.n,
            pattern.axis_coordinate_set(0),
            pattern.axis_coordinate_set(1),
            pattern.axis_coordinate_set(2),
        )

        # Gather the octree samples out of each (|X|, |Y|, |Z|) box: the
        # plan's axis sets are the pattern's, so the pattern's cached flat
        # index addresses the box.
        fields = [
            CompressedField(
                pattern=pattern,
                values=np.take(box.reshape(-1), pattern.box_gather_index),
            )
            for box in self._staged_convolve(sub, corner, plan)
        ]
        return fields[0] if sub.ndim == 3 else fields

    def convolve_dense_debug(  # repro-lint: disable=DEAD001 oracle of test_core_local_conv.py::TestDenseDebugPath
        self, sub: np.ndarray, corner: Sequence[int]
    ) -> np.ndarray:
        """Uncompressed local convolution (full ``n^3`` result per
        component).

        Validation-only: this is exactly the dense cube the production path
        avoids materializing.
        """
        sub, corner = self._validate(sub, corner)
        full = np.arange(self.n, dtype=np.intp)
        plan = plan_for(self.n, full, full, full)
        boxes = self._staged_convolve(sub, corner, plan)
        return boxes[0] if sub.ndim == 3 else np.stack(boxes)

    # -- stages -------------------------------------------------------------
    def _pointwise(self, spec: np.ndarray, sl: slice) -> np.ndarray:
        """The pointwise step on the ``(C, B, n)`` spectra of batch ``sl``."""
        if self._operator is None:
            spec *= self._kernel_flat[sl]
            return spec
        ix, iy = self._pencils
        out = self._operator(spec, ix[sl], iy[sl])
        if out.shape != spec.shape:
            raise ShapeError(
                f"pointwise operator returned {out.shape} for a {spec.shape} batch"
            )
        return out

    def _staged_convolve(
        self,
        sub: np.ndarray,
        corner: Tuple[int, int, int],
        plan: PrunedPlan,
    ) -> List[np.ndarray]:
        """The ``(|X|, |Y|, |Z|)`` result box of each component of ``sub``."""
        n = self.n
        comps = 1 if sub.ndim == 3 else sub.shape[0]
        k = sub.shape[-1]  # slab keeps the z extent spatial
        cz = corner[2]
        rows = plan.slab_rows  # n//2+1: the half spectrum
        cbytes = COMPLEX_BYTES * comps
        batch = min(self.batch or default_pencil_batch(n, comps), plan.num_pencils)

        with self._charge("slab", cbytes * rows * n * k):
            slab = plan.forward_slab(sub, corner, self._scratch)
            flat = slab.reshape(comps, plan.num_pencils, k)

            # An "fft" stage computes full-length pencils before keeping
            # the retained coordinates: one more (B, n) buffer per z batch
            # (components go one at a time), one (n, |Z|) plane at a time in
            # the y stage.
            sz = plan.mz
            z_full = COMPLEX_BYTES * batch * n if plan.strategy.z == "fft" else 0
            y_full = COMPLEX_BYTES * n * sz if plan.strategy.y == "fft" else 0
            with self._charge("z_sampled", cbytes * plan.num_pencils * sz):
                zred = np.empty((comps, plan.num_pencils, sz), dtype=np.complex128)
                # the batch's pad buffer and spectrum; a stack also gathers
                # its components' rows into one (C * B, k) operand
                gathered = k if comps > 1 else 0
                with self._charge(
                    "pencil_batch", cbytes * batch * (2 * n + gathered)
                ), self._charge("z_full_batch", z_full):
                    for sl in pencil_batches(plan.num_pencils, batch):
                        # components stack along the batch axis: one call
                        spec = plan.zstage(
                            flat[:, sl].reshape(-1, k), cz, self._scratch
                        )
                        spec = self._pointwise(spec.reshape(comps, -1, n), sl)
                        for c in range(comps):
                            plan.idft_z(spec[c], out=zred[c, sl])

                # Inverse y stage, pruned to the retained y coordinates.
                sy = plan.my
                with self._charge("y_sampled", cbytes * rows * sy * sz):
                    with self._charge("y_full_plane", y_full):
                        yred = plan.idft_y(zred.reshape(comps * rows, n, sz))
                    # Inverse x stage, pruned to the retained x coordinates
                    # (Hermitian-aware: real output, its stacked operand
                    # built in the spent z-stage buffer).
                    sx = plan.mx
                    with self._charge("x_sampled", REAL_BYTES * comps * sx * sy * sz):
                        boxes = [
                            plan.idft_x(comp, work=work)
                            for comp, work in zip(
                                yred.reshape(comps, rows, sy, sz), zred
                            )
                        ]
        return boxes

    # -- helpers -------------------------------------------------------------
    def _validate(
        self, sub: np.ndarray, corner: Sequence[int]
    ) -> Tuple[np.ndarray, Tuple[int, int, int]]:
        sub = np.asarray(sub, dtype=np.float64)
        if sub.ndim not in (3, 4):
            raise ShapeError(f"sub-domain must be rank 3 or 4, got shape {sub.shape}")
        corner = tuple(int(c) for c in corner)
        if len(corner) != 3:
            raise ConfigurationError(f"corner must have 3 components, got {corner}")
        for c, extent in zip(corner, sub.shape[-3:]):
            if c < 0 or c + extent > self.n:
                raise ShapeError(
                    f"sub-domain of shape {sub.shape} at corner {corner} "
                    f"outside grid of size {self.n}"
                )
        return sub, corner

    def _charge(self, name: str, nbytes: int):
        """Charge an allocation on the tracker (no-op context if untracked)."""
        if self.memory is not None:
            return self.memory.allocate(name, nbytes)
        from contextlib import nullcontext

        return nullcontext()
