"""Local FFT-based convolution with in-pipeline compression (paper Step 2-3).

This is the operation Fig 2 draws inside one worker:

1. the ``k^3`` sub-domain is transformed to an ``N x N x k`` slab (2D
   pruned-input FFT; zero padding stays implicit in the 1D calls);
2. the slab's z-pencils are processed in batches of ``B``: forward 1D FFT
   (pruned input), pointwise multiply with the kernel spectrum pencil
   (cuFFT-callback role), and a *pruned-output* inverse that keeps the
   result only at the octree-retained z coordinates — the compression
   callback, so the ``N^3`` cube never materializes;
3. the remaining inverse y and x stages are equally pruned to the
   octree-retained coordinate sets, the intermediate shrinking each stage;
4. the octree samples are gathered from the final box into a
   :class:`~repro.octree.compress.CompressedField`, through the pattern's
   cached :attr:`~repro.octree.sampling.SamplingPattern.box_gather_index`.

All data-independent state (how each inverse stage is computed — a
partial-iDFT matrix product while few coordinates are retained, a full
inverse FFT plus a take of the retained ones past the plan's crossover —
the matrices that needs, pad scratch buffers, pencil index arrays) lives in
a :class:`~repro.fft.pruned_plan.PrunedPlan`, built once per pattern and
shared across congruent sub-domains.

When the kernel spectrum is real (Green's-function kernels — detected
automatically for dense spectra, or asserted with ``real_kernel=True``),
the **Hermitian fast path** runs the whole staged transform on the
``n//2 + 1`` non-redundant x-frequency rows: rfft-based slab, half the
z-pencils and pointwise multiplies, and a Hermitian-aware final x stage —
roughly halving flops and the ``8*N*N*k`` slab working set of Table 1.

**Components and the pointwise seam.**  ``sub`` may be a ``(C, k, k, k)``
stack of components over one box: it runs the same stages (one slab call,
one z-stage call per pencil batch, one y stage) and comes back as ``C``
compressed fields on one pattern.  Stages keep per-component GEMM and FFT
shapes, so component ``c`` is bitwise the one-component call on
``sub[c]``.  The one step that differs between callers is the pointwise
one (PAPER.md §6's sub-plan): the scalar kernel multiply by default, or a
:class:`PencilOperator` that maps the ``(C, B, n)`` pencil batch and may
mix components (MASSIF's ``Gamma_hat : tau``,
:func:`repro.kernels.green_massif.gamma_pencil_operator`).
``real_kernel=True`` with an operator promises that it commutes with the
conjugate mirror — ``op(conj(tau(-xi)))(-xi) == conj(op(tau)(xi))``, true
of any contraction whose coefficients are real and even in ``xi`` — so a
real input has a real result and the ``n//2 + 1`` stored x rows suffice.

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
from repro.fft.pruned import pencil_batches
from repro.fft.pruned_plan import PlanCache, PrunedPlan
from repro.kernels.properties import spectrum_is_hermitian_real
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


#: Kernel spectrum: the dense ``n^3`` array, a callable
#: ``(ix, iy) -> (len(ix), n)`` returning spectrum pencils on the fly
#: (the paper's "computed on-the-fly during convolution" mode), or a
#: :class:`PencilOperator` standing in for the multiply altogether.
KernelSpectrum = Union[
    np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray], PencilOperator
]


class LocalConvolution:
    """Pruned, compressed convolution of one sub-domain on one worker.

    Parameters
    ----------
    n:
        Global grid edge.
    kernel_spectrum:
        Dense ``n^3`` spectrum, an on-the-fly pencil callable, or a
        :class:`PencilOperator`.
    policy:
        Compression hyperparameters (r-schedule).
    batch:
        z-pencil batch size ``B`` (paper §5.4); defaults to ``n``.
    memory:
        Optional device memory tracker to charge allocations against.
    real_kernel:
        ``True`` asserts the kernel spectrum is real/Hermitian and enables
        the half-spectrum fast path; ``False`` forces the complex path;
        ``None`` (default) auto-detects for dense spectra via
        :func:`~repro.kernels.properties.spectrum_is_hermitian_real`
        (callables and operators default to the complex path; see the
        module docstring for what ``True`` promises of an operator).
    plans:
        Optional shared :class:`~repro.fft.pruned_plan.PlanCache`; one is
        created per instance otherwise.
    """

    def __init__(
        self,
        n: int,
        kernel_spectrum: KernelSpectrum,
        policy: SamplingPolicy,
        batch: Optional[int] = None,
        memory: Optional[MemoryTracker] = None,
        real_kernel: Optional[bool] = None,
        plans: Optional[PlanCache] = None,
    ):
        self.n = check_positive_int(n, "n")
        self.policy = policy
        self.batch = check_positive_int(batch, "batch") if batch else n
        self.memory = memory
        self.plans = plans if plans is not None else PlanCache()
        self._kernel_flat: Optional[np.ndarray] = None
        self._kernel_fn = self._operator = None
        if isinstance(kernel_spectrum, PencilOperator):
            self._operator = kernel_spectrum.apply
            self.real_kernel = bool(real_kernel)
        elif callable(kernel_spectrum):
            self._kernel_fn = kernel_spectrum
            self.real_kernel = bool(real_kernel) if real_kernel is not None else False
        else:
            spec = np.asarray(kernel_spectrum)
            if spec.shape != (n, n, n):
                raise ShapeError(
                    f"kernel spectrum shape {spec.shape} != ({n},)*3"
                )
            if real_kernel is None:
                self.real_kernel = spectrum_is_hermitian_real(spec)
            elif real_kernel and not spectrum_is_hermitian_real(spec):
                raise ConfigurationError(
                    "real_kernel=True but the kernel spectrum is not "
                    "real/centrosymmetric; the Hermitian fast path would "
                    "be inexact"
                )
            else:
                self.real_kernel = bool(real_kernel)
            if self.real_kernel:
                # the Hermitian path multiplies by real pencils: drop the
                # (zero) imaginary part here, not once per batch
                spec = np.real(spec)
            # Flat (n*n, n) view: pencil batches are contiguous row
            # slices, so the z-stage multiply slices without fancy
            # indexing.  The Hermitian path's half rows [0, (n//2+1)*n)
            # occupy a prefix of the same layout.
            self._kernel_flat = spec.reshape(n * n, n)

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
        plan = self._plan_for(
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
                values=np.real(np.take(box.reshape(-1), pattern.box_gather_index)),
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
        boxes = self._staged_convolve(sub, corner, self._plan_for(full, full, full))
        return np.real(boxes[0] if sub.ndim == 3 else np.stack(boxes))

    # -- stages -------------------------------------------------------------
    def _plan_for(
        self, coords_x: np.ndarray, coords_y: np.ndarray, coords_z: np.ndarray
    ) -> PrunedPlan:
        return self.plans.get(
            self.n, coords_x, coords_y, coords_z, hermitian=self.real_kernel
        )

    def _pointwise(self, spec: np.ndarray, plan: PrunedPlan, sl: slice) -> np.ndarray:
        """The pointwise step on the ``(C, B, n)`` spectra of batch ``sl``."""
        if self._kernel_flat is not None:
            spec *= self._kernel_flat[sl]
            return spec
        ix, iy = plan.pencil_ix[sl], plan.pencil_iy[sl]
        if self._operator is None:
            kp = self._kernel_fn(ix, iy)
            spec *= np.real(kp) if plan.hermitian else kp
            return spec
        out = self._operator(spec, ix, iy)
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
        rows = plan.slab_rows  # n, or n//2+1 on the Hermitian fast path
        cbytes = COMPLEX_BYTES * comps

        with self._charge("slab", cbytes * rows * n * k):
            slab = plan.forward_slab(sub, corner)
            flat = slab.reshape(comps, plan.num_pencils, k)

            # An "fft" stage computes full-length pencils before keeping
            # the retained coordinates: one more (B, n) buffer per z batch,
            # one (n, |Z|) plane at a time in the y stage.
            sz = plan.mz
            z_full = cbytes * self.batch * n if plan.strategy.z == "fft" else 0
            y_full = COMPLEX_BYTES * n * sz if plan.strategy.y == "fft" else 0
            with self._charge("z_sampled", cbytes * plan.num_pencils * sz):
                zred = np.empty((comps, plan.num_pencils, sz), dtype=np.complex128)
                with self._charge(
                    "pencil_batch", cbytes * self.batch * n * 2
                ), self._charge("z_full_batch", z_full):
                    for sl in pencil_batches(plan.num_pencils, self.batch):
                        # components stack along the batch axis: one call
                        spec = plan.zstage(flat[:, sl].reshape(-1, k), cz)
                        spec = self._pointwise(spec.reshape(comps, -1, n), plan, sl)
                        for c in range(comps):
                            plan.idft_z(spec[c], out=zred[c, sl])

                # Inverse y stage, pruned to the retained y coordinates.
                sy = plan.my
                with self._charge("y_sampled", cbytes * rows * sy * sz):
                    with self._charge("y_full_plane", y_full):
                        yred = plan.idft_y(zred.reshape(comps * rows, n, sz))
                    # Inverse x stage, pruned to the retained x coordinates
                    # (Hermitian-aware on the fast path: real output, its
                    # stacked operand built in the spent z-stage buffer).
                    sx = plan.mx
                    out_bytes = REAL_BYTES if plan.hermitian else COMPLEX_BYTES
                    with self._charge("x_sampled", out_bytes * comps * sx * sy * sz):
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
