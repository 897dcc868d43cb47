"""Domain decomposition: regular ``k^3`` sub-domains of an ``N^3`` grid.

"The 3D input is split into chunks, or sub-domains.  For now, we assume
regular volumetric sub-domains but irregular partitions can also be made."
(paper §3.1).  Sub-domains are assigned round-robin to workers; a worker
may own several ("multiple chunks can be batch processed by a single
worker").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.util.validation import check_divides, check_positive_int


@dataclass(frozen=True)
class SubDomain:
    """One chunk of the decomposition."""

    index: int
    corner: Tuple[int, int, int]
    size: int

    def slices(self) -> Tuple[slice, slice, slice]:
        """Index slices of this sub-domain within the global grid."""
        return tuple(slice(c, c + self.size) for c in self.corner)


@dataclass(frozen=True)
class DomainDecomposition:
    """Regular decomposition of an ``n^3`` grid into ``(n/k)^3`` sub-domains.

    Sub-domains are ordered lexicographically by corner (x-major), matching
    the packed iteration order everywhere in the library.
    """

    n: int
    k: int

    def __post_init__(self) -> None:
        check_positive_int(self.n, "n")
        check_positive_int(self.k, "k")
        if self.k > self.n:
            raise ConfigurationError(f"sub-domain k={self.k} exceeds grid n={self.n}")
        check_divides(self.k, self.n, "k | n")

    @property
    def domains_per_axis(self) -> int:
        return self.n // self.k

    @property
    def num_domains(self) -> int:
        return self.domains_per_axis**3

    def subdomain(self, index: int) -> SubDomain:
        """Sub-domain by linear index."""
        m = self.domains_per_axis
        if not 0 <= index < self.num_domains:
            raise ConfigurationError(
                f"sub-domain index {index} out of range [0, {self.num_domains})"
            )
        ix, rem = divmod(index, m * m)
        iy, iz = divmod(rem, m)
        return SubDomain(
            index=index, corner=(ix * self.k, iy * self.k, iz * self.k), size=self.k
        )

    def __iter__(self) -> Iterator[SubDomain]:
        for i in range(self.num_domains):
            yield self.subdomain(i)

    def __len__(self) -> int:
        return self.num_domains

    def extract(self, field: np.ndarray, sub: SubDomain) -> np.ndarray:
        """Copy the sub-domain's block out of a global field (leading
        component axes are kept)."""
        field = np.asarray(field)
        if field.shape[-3:] != (self.n,) * 3:
            raise ShapeError(f"field shape {field.shape} != grid ({self.n},)*3")
        return field[(...,) + sub.slices()].copy()

    def active_subdomains(
        self, field: np.ndarray, subdomains: Optional[Iterable[SubDomain]] = None
    ) -> List[SubDomain]:
        """The members of ``subdomains`` (default: every sub-domain) whose
        block of ``field`` holds any non-zero sample, in any component
        when ``field`` has leading component axes.

        All-zero blocks contribute nothing (implicit sparsity), so they
        are skipped everywhere: never convolved, scattered, exchanged
        or counted by the Eq 6 accounting.  This is the one statement of
        that rule.
        """
        if subdomains is None:
            subdomains = self
        return [sub for sub in subdomains if np.any(field[(...,) + sub.slices()])]

    def active_blocks(
        self, field: np.ndarray, subdomains: Optional[Iterable[SubDomain]] = None
    ) -> Iterator[Tuple[SubDomain, np.ndarray]]:
        """``(sub-domain, copy of its block)`` for every active member of
        ``subdomains``, in order — how a dense field enters
        :meth:`~repro.core.pipeline.LowCommConvolution3D.convolve_chunks`."""
        for sub in self.active_subdomains(field, subdomains):
            yield sub, self.extract(field, sub)

    def assign_round_robin(self, num_workers: int) -> List[List[SubDomain]]:
        """Round-robin assignment of sub-domains to workers."""
        check_positive_int(num_workers, "num_workers")
        buckets: List[List[SubDomain]] = [[] for _ in range(num_workers)]
        for sub in self:
            buckets[sub.index % num_workers].append(sub)
        return buckets
