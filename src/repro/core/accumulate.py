"""Accumulation: the single sparse exchange plus interpolation (Step 4).

"Accumulating sub-domain results by interpolation and minimal data
communication avoids all-to-all between FFT stages.  Only sparse samples
are exchanged at the end of the computation."  (paper §3.1)

Three entry points:

- :func:`accumulate_global` — serial: sum the interpolated reconstructions
  of every sub-domain's compressed result into the dense grid (testing /
  single-node use).
- :func:`accumulate_boxes` — the rank-side half of the distributed step:
  sum every field restricted to each of a rank's *own* sub-domain boxes.
  The real rank loop (:mod:`repro.dist.worker`), the pool's recovery job
  and :class:`Accumulator` all accumulate through it.
- :class:`Accumulator` — distributed: each rank broadcasts its compressed
  fields in ONE allgather round (the only collective in the whole
  pipeline), then reconstructs every field restricted to its *own*
  sub-domain boxes and sums.  No rank ever holds the global dense grid.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

from repro.cluster.comm import SimulatedComm
from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.errors import CommunicationError, ConfigurationError
from repro.octree.compress import CompressedField
from repro.octree.interpolate import reconstruct_box


def accumulate_global(
    fields: Sequence[CompressedField], method: str = "linear"
) -> np.ndarray:
    """Sum the dense reconstructions of all compressed sub-domain results."""
    if not fields:
        raise ConfigurationError("need at least one compressed field")
    n = fields[0].pattern.n
    out = np.zeros((n, n, n), dtype=np.float64)
    for f in fields:
        if f.pattern.n != n:
            raise ConfigurationError(
                f"mixed grid sizes in accumulation: {f.pattern.n} vs {n}"
            )
        reconstruct_box(f, (0, 0, 0), (n, n, n), method=method, out=out)
    return out


def accumulate_boxes(
    fields: Mapping[int, CompressedField],
    targets: Iterable[SubDomain],
    method: str = "linear",
) -> Dict[int, np.ndarray]:
    """Accumulate every field over each target sub-domain's own box.

    ``fields`` maps sub-domain index to that sub-domain's compressed
    result.  Each block sums the fields in sub-domain index order — the
    order ``run_serial`` adds them in — so a block is bitwise the matching
    slice of :func:`accumulate_global`, whichever rank computed it and
    whatever order the fields arrived in.  Returns the dense ``k^3``
    block per target, keyed by sub-domain index.
    """
    ordered = [fields[index] for index in sorted(fields)]
    blocks: Dict[int, np.ndarray] = {}
    for target in targets:
        shape = (target.size,) * 3
        acc = np.zeros(shape, dtype=np.float64)
        for field in ordered:
            reconstruct_box(field, target.corner, shape, method=method, out=acc)
        blocks[target.index] = acc
    return blocks


class Accumulator:
    """Distributed accumulation over a simulated communicator.

    Parameters
    ----------
    decomposition:
        The sub-domain layout (also defines the rank ownership map via
        round-robin assignment).
    method:
        Interpolation method for reconstruction.
    """

    def __init__(self, decomposition: DomainDecomposition, method: str = "linear"):
        self.decomposition = decomposition
        self.method = method

    def exchange_and_accumulate(
        self,
        fields_by_rank: Sequence[Sequence[Tuple[SubDomain, CompressedField]]],
        comm: SimulatedComm,
    ) -> Dict[int, np.ndarray]:
        """One allgather of compressed samples, then local interpolation.

        Parameters
        ----------
        fields_by_rank:
            ``fields_by_rank[r]`` is rank r's list of (sub-domain,
            compressed result) pairs for the sub-domains it processed.
        comm:
            The simulated communicator (its ledger records exactly one
            allgather round — the Fig 1(b) claim).

        Returns
        -------
        Mapping from sub-domain index to the accumulated dense ``k^3``
        block for that sub-domain.
        """
        if len(fields_by_rank) != comm.size:
            raise CommunicationError(
                f"fields for {len(fields_by_rank)} ranks, communicator "
                f"has {comm.size}"
            )

        # Wire format per rank: the concatenated sample values of all its
        # fields.  Patterns are deterministic from (n, k, corner, policy),
        # so peers rebuild them locally; only values + lightweight metadata
        # cross the network (the paper's compressed representation).
        payloads = [
            np.concatenate([f.values for _sub, f in rank_fields])
            if rank_fields
            else np.empty(0, dtype=np.float64)
            for rank_fields in fields_by_rank
        ]
        comm.allgather(payloads)  # the single sparse exchange

        # Every rank now (logically) has every field; rank r reconstructs
        # only over its own sub-domains' boxes.
        all_fields = {
            sub.index: field
            for rank_fields in fields_by_rank
            for sub, field in rank_fields
        }
        blocks: Dict[int, np.ndarray] = {}
        for rank_subs in self.decomposition.assign_round_robin(comm.size):
            blocks.update(accumulate_boxes(all_fields, rank_subs, self.method))
        return blocks

    def assemble(self, blocks: Dict[int, np.ndarray]) -> np.ndarray:
        """Stitch per-sub-domain blocks into the global dense grid
        (driver-side convenience for validation and output)."""
        n = self.decomposition.n
        out = np.zeros((n, n, n), dtype=np.float64)
        for index, block in blocks.items():
            sub = self.decomposition.subdomain(index)
            out[sub.slices()] = block
        return out
