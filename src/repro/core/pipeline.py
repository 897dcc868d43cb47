"""The end-to-end low-communication convolution (paper Fig 2 / Alg 2 core).

:class:`LowCommConvolution3D` composes the pieces:

- decomposition of the global field into sub-domains,
- local pruned compressed convolution of each sub-domain,
- one sparse exchange + interpolation to accumulate.

:meth:`~LowCommConvolution3D.run_serial` processes the sub-domains one
after another in one process ("For the sake of preliminary results, the
GPU sequentially processes the sub-domains", §5.1) and returns the dense
approximate result.  Many cores means many ranks:
:func:`repro.dist.dist_run` runs one job, and a
:class:`repro.pool.RankPool` runs a stream of them.  Each rank iterates
the same :meth:`~LowCommConvolution3D.convolve_chunks` over its share of
the sub-domains, and the result is bitwise identical to
:meth:`~LowCommConvolution3D.run_serial`.  A pipeline keeps no derived
state of its own beyond its kernel: patterns and FFT plans come from the
process-wide tables (:meth:`SamplingPolicy.pattern_for`,
:func:`~repro.fft.pruned_plan.plan_for`), so a second pipeline of one
shape builds neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.memory import MemoryTracker
from repro.core.accumulate import accumulate_global
from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.core.local_conv import KernelSpectrum, LocalConvolution
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
        Dense real, centrosymmetric ``n^3`` spectrum (anything else is a
        :class:`~repro.errors.ConfigurationError`, paper §3.1), or a
        :class:`~repro.core.local_conv.PencilOperator` (tensor-valued
        fields enter through :meth:`convolve_chunks`, not ``run_*``).
    policy:
        Compression hyperparameters.
    batch:
        z-pencil batch size ``B``; ``None`` sizes it from ``(n,
        components)`` by :func:`~repro.fft.pruned.default_pencil_batch`
        (256 KiB of spectra, at least ``n``).  Results are bitwise the
        same at any ``B`` of two pencils or more.
    memory:
        Optional tracker charged by every local convolution.
    """

    def __init__(
        self,
        n: int,
        k: int,
        kernel_spectrum: KernelSpectrum,
        policy: Optional[SamplingPolicy] = None,
        batch: Optional[int] = None,
        memory: Optional[MemoryTracker] = None,
    ):
        self.decomposition = DomainDecomposition(n=n, k=k)
        self.policy = policy or SamplingPolicy()
        self.memory = memory
        self.local = LocalConvolution(
            n=n,
            kernel_spectrum=kernel_spectrum,
            policy=self.policy,
            batch=batch,
            memory=memory,
        )

    @property
    def n(self) -> int:
        return self.decomposition.n

    @property
    def k(self) -> int:
        return self.decomposition.k

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

        The per-sub-domain step :meth:`run_serial` and every rank
        iterate: convolve the block locally against its sub-domain's
        sampling pattern (from the process-wide table,
        :meth:`SamplingPolicy.pattern_for`), yield ``(sub-domain,
        compressed result)``.  The caller supplies the
        blocks — cut from a dense field by
        :meth:`DomainDecomposition.active_blocks`, or received off the
        wire by a rank that never holds the field — and leaves out
        all-zero ones.  A ``(C, k, k, k)`` block (a tensor-valued field's
        components) yields the list of its ``C`` compressed results.
        """
        for sub, block in chunks:
            yield sub, self.local.convolve(
                block,
                sub.corner,
                pattern=self.policy.pattern_for(self.n, sub.size, sub.corner),
            )

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
        (zeros when nothing was convolved), each field entering the
        summation tree at its sub-domain index."""
        if per_domain:
            return accumulate_global({sub.index: f for sub, f in per_domain})
        return np.zeros((self.n,) * 3, dtype=np.float64)

    # -- execution ---------------------------------------------------------
    def run_serial(self, field: np.ndarray) -> ConvolutionResult:
        """Process all sub-domains on one worker; return the dense result."""
        start = _WALL.now()
        blocks = self.decomposition.active_blocks(self._check_field(field))
        per_domain = list(self.convolve_chunks(blocks))
        approx = self.accumulate(per_domain)
        return self._result(approx, per_domain, _WALL.now() - start)
