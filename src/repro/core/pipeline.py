"""The end-to-end low-communication convolution (paper Fig 2 / Alg 2 core).

:class:`LowCommConvolution3D` composes the pieces:

- decomposition of the global field into sub-domains,
- local pruned compressed convolution of each sub-domain,
- one sparse exchange + interpolation to accumulate.

Two in-process execution modes (the pipeline's other runtime is the
real rank loop, :func:`repro.dist.worker.rank_main`, which iterates the
same :meth:`~LowCommConvolution3D.convolve_chunks`):

- :meth:`run_serial` — one worker processes sub-domains sequentially
  ("For the sake of preliminary results, the GPU sequentially processes
  the sub-domains", §5.1); returns the dense approximate result.
- :meth:`run_parallel` — the same computation fanned out over a process
  pool: sub-domains are independent until accumulation (the paper's zero
  communication claim), so they parallelize across cores with the field
  and kernel spectrum shipped once via shared memory
  (:mod:`repro.core.parallel`).  Results are bitwise identical to
  :meth:`run_serial`.

The simulated cluster is not a third mode: it books the Fig 1(b) traffic
and a modeled time on a finished :class:`ConvolutionResult`
(:mod:`repro.core.distributed_runner`).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.memory import MemoryTracker
from repro.core.accumulate import accumulate_global
from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.core.local_conv import KernelSpectrum, LocalConvolution
from repro.fft.pruned_plan import PlanCache
from repro.core.parallel import convolve_subdomains_parallel
from repro.core.policy import SamplingPolicy
from repro.errors import ShapeError
from repro.octree.compress import CompressedField
from repro.util.clock import MonotonicClock

#: Wall time source for ``ConvolutionResult.elapsed_s``.
_WALL = MonotonicClock()


@dataclass
class ConvolutionResult:
    """Output of a pipeline run with the statistics the paper reports."""

    approx: np.ndarray
    n: int
    k: int
    num_subdomains: int
    total_samples: int
    compressed_bytes: int
    elapsed_s: float
    comm_rounds: int = 0
    comm_bytes: int = 0
    peak_memory_bytes: int = 0
    per_domain: List[Tuple[SubDomain, CompressedField]] = dataclass_field(
        default_factory=list
    )

    @property
    def compression_ratio(self) -> float:
        """Dense result bytes over compressed bytes."""
        dense = 8 * self.n**3 * self.num_subdomains
        return dense / self.compressed_bytes if self.compressed_bytes else float("inf")


class LowCommConvolution3D:
    """Low-communication approximate 3D convolution.

    Parameters
    ----------
    n:
        Global grid edge.
    k:
        Sub-domain edge (must divide ``n``).
    kernel_spectrum:
        Dense ``n^3`` spectrum, on-the-fly pencil callable, or a
        :class:`~repro.core.local_conv.PencilOperator` (tensor-valued
        fields enter through :meth:`convolve_chunks`, not ``run_*``).
    policy:
        Compression hyperparameters.
    batch:
        z-pencil batch size.
    interpolation:
        Reconstruction method for accumulation.
    memory:
        Optional tracker charged by every local convolution.
    real_kernel:
        Hermitian fast-path control, forwarded to
        :class:`~repro.core.local_conv.LocalConvolution` (``None`` =
        auto-detect for dense spectra).
    plans:
        Optional shared :class:`~repro.fft.pruned_plan.PlanCache`.  A
        long-lived caller (the standing rank pool) passes its
        process-wide cache so FFT plans survive across pipelines; by
        default each pipeline keeps its own cache (thread-safe for the
        in-process rank threads, which each build their own pipeline).
    """

    def __init__(
        self,
        n: int,
        k: int,
        kernel_spectrum: KernelSpectrum,
        policy: Optional[SamplingPolicy] = None,
        batch: Optional[int] = None,
        interpolation: str = "linear",
        memory: Optional[MemoryTracker] = None,
        real_kernel: Optional[bool] = None,
        plans: Optional[PlanCache] = None,
    ):
        self.decomposition = DomainDecomposition(n=n, k=k)
        self.policy = policy or SamplingPolicy()
        self.interpolation = interpolation
        self.memory = memory
        self._kernel_spectrum = kernel_spectrum
        self._real_kernel_arg = real_kernel
        self.local = LocalConvolution(
            n=n,
            kernel_spectrum=kernel_spectrum,
            policy=self.policy,
            batch=batch,
            memory=memory,
            real_kernel=real_kernel,
            plans=plans,
        )
        self._pattern_cache: Dict[Tuple[Tuple[int, int, int], int], object] = {}

    @property
    def n(self) -> int:
        return self.decomposition.n

    @property
    def k(self) -> int:
        return self.decomposition.k

    def _pattern(self, sub: SubDomain):
        """The sampling pattern of ``sub``, cached by ``(corner, size)`` so
        blocks of different sizes share the one cache."""
        key = (sub.corner, sub.size)
        if key not in self._pattern_cache:
            self._pattern_cache[key] = self.policy.pattern_for(
                self.n, sub.size, sub.corner
            )
        return self._pattern_cache[key]

    def _check_field(self, field: np.ndarray) -> np.ndarray:
        field = np.asarray(field, dtype=np.float64)
        if field.shape != (self.n,) * 3:
            raise ShapeError(f"field shape {field.shape} != grid ({self.n},)*3")
        return field

    def active_subdomains(
        self, field: np.ndarray, subdomains: Optional[Iterable[SubDomain]] = None
    ) -> List[SubDomain]:
        """The members of ``subdomains`` (default: the whole decomposition)
        that are not all-zero in ``field``
        (:meth:`DomainDecomposition.active_subdomains`)."""
        return self.decomposition.active_subdomains(field, subdomains)

    def convolve_chunks(
        self, chunks: Iterable[Tuple[SubDomain, np.ndarray]]
    ) -> Iterator[Tuple[SubDomain, Union[CompressedField, List[CompressedField]]]]:
        """Lazily convolve ``(sub-domain, k^3 block)`` pairs, in order.

        The per-sub-domain step every execution mode iterates: convolve
        the block locally against the cached sampling pattern, yield
        ``(sub-domain, compressed result)``.  The caller supplies the
        blocks — cut from a dense field by
        :meth:`DomainDecomposition.active_blocks`, or received off the
        wire by a rank that never holds the field — and leaves out
        all-zero ones.  A ``(C, k, k, k)`` block (a tensor-valued field's
        components) yields the list of its ``C`` compressed results.
        """
        for sub, block in chunks:
            yield sub, self.local.convolve(
                block, sub.corner, pattern=self._pattern(sub)
            )

    def _convolve_in_pool(
        self, field: np.ndarray, max_workers: Optional[int]
    ) -> List[Tuple[SubDomain, CompressedField]]:
        """Process-pool counterpart of :meth:`convolve_chunks`.

        Workers return only sample values; patterns come from the parent's
        cache, so the resulting pairs match the serial ones bitwise.
        """
        field = self._check_field(field)
        active = self.active_subdomains(field)
        pairs = convolve_subdomains_parallel(
            field,
            self.n,
            self.k,
            self._kernel_spectrum,
            self.policy,
            [sub.index for sub in active],
            batch=self.local.batch,
            real_kernel=self._real_kernel_arg,
            max_workers=max_workers,
        )
        results: List[Tuple[SubDomain, CompressedField]] = []
        for sub, (index, values) in zip(active, pairs):
            assert sub.index == index
            compressed = CompressedField(
                pattern=self._pattern(sub), values=values
            )
            results.append((sub, compressed))
        return results

    def _result(
        self,
        approx: np.ndarray,
        per_domain: List[Tuple[SubDomain, CompressedField]],
        elapsed_s: float,
    ) -> ConvolutionResult:
        return ConvolutionResult(
            approx=approx,
            n=self.n,
            k=self.k,
            num_subdomains=len(per_domain),
            total_samples=sum(f.pattern.sample_count for _s, f in per_domain),
            compressed_bytes=sum(f.nbytes for _s, f in per_domain),
            elapsed_s=elapsed_s,
            peak_memory_bytes=self.memory.peak_bytes if self.memory else 0,
            per_domain=per_domain,
        )

    def accumulate(
        self, per_domain: List[Tuple[SubDomain, CompressedField]]
    ) -> np.ndarray:
        """The dense ``n^3`` sum of every sub-domain's interpolated result
        (zeros when nothing was convolved)."""
        if per_domain:
            return accumulate_global(
                [f for _s, f in per_domain], method=self.interpolation
            )
        return np.zeros((self.n,) * 3, dtype=np.float64)

    # -- execution modes ----------------------------------------------------
    def run_serial(self, field: np.ndarray) -> ConvolutionResult:
        """Process all sub-domains on one worker; return the dense result."""
        start = _WALL.now()
        blocks = self.decomposition.active_blocks(self._check_field(field))
        per_domain = list(self.convolve_chunks(blocks))
        approx = self.accumulate(per_domain)
        return self._result(approx, per_domain, _WALL.now() - start)

    def run_parallel(
        self, field: np.ndarray, max_workers: Optional[int] = None
    ) -> ConvolutionResult:
        """Fan the independent sub-domain convolutions over a process pool.

        Zero inter-worker communication until accumulation — the paper's
        core structural claim — so this is a pure fan-out: the field and
        kernel spectrum are shared (not pickled per task) and each worker
        processes its sub-domains with a process-local plan cache.  The
        returned result is bitwise identical to :meth:`run_serial`
        (``per_domain`` is ordered by sub-domain index in both).

        Parameters
        ----------
        field:
            Dense ``n^3`` input field.
        max_workers:
            Process count; defaults to all available cores.
        """
        start = _WALL.now()
        per_domain = self._convolve_in_pool(field, max_workers)
        approx = self.accumulate(per_domain)
        return self._result(approx, per_domain, _WALL.now() - start)
