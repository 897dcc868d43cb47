"""Accumulation: the single sparse exchange plus interpolation (Step 4).

"Accumulating sub-domain results by interpolation and minimal data
communication avoids all-to-all between FFT stages.  Only sparse samples
are exchanged at the end of the computation."  (paper §3.1)

Two entry points, one per runtime:

- :func:`accumulate_global` — in-process (``run_serial`` /
  ``run_parallel``, driver-side recovery): sum the interpolated
  reconstructions of every sub-domain's compressed result into the dense
  grid.
- :func:`accumulate_boxes` — the rank-side half of the distributed step
  (:func:`repro.dist.worker.rank_main`, after the single sparse exchange):
  sum every field restricted to each of a rank's *own* sub-domain boxes,
  so no rank ever holds the global dense grid.
  :func:`repro.dist.launcher.assemble_blocks` places the blocks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence

import numpy as np

from repro.core.decomposition import SubDomain
from repro.errors import ConfigurationError
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
