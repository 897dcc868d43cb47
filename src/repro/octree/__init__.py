"""Octree-based adaptive multi-resolution sampling (paper Step 3, Fig 3).

The convolution result of a sub-domain embedded in zeros decays away from
the sub-domain (Green's-function property), so it compresses well under
distance-adaptive sampling: dense on the sub-domain, progressively sparser
with distance, dense again at the grid edges where boundary conditions
live.  An octree partitions the grid into cells of uniform sampling rate;
its metadata is the paper's 5-integers-per-cell layout
``(x, y, z, rate, cumulative-sample-count)``.

Modules
-------
- :mod:`repro.octree.cell` — cells and the 5-int metadata codec.
- :mod:`repro.octree.tree` — octree construction by recursive subdivision
  until each leaf has a uniform required rate.
- :mod:`repro.octree.sampling` — the banded rate schedule (paper §5.4
  heuristic) and :class:`SamplingPattern`.
- :mod:`repro.octree.compress` — :class:`CompressedField`: sample
  extraction and serialization.
- :mod:`repro.octree.interpolate` — dense reconstruction (per-cell
  trilinear / nearest) and restricted-box reconstruction for accumulation.
"""

from repro.octree.cell import (
    METADATA_INTS_PER_CELL,
    OctreeCell,
    decode_metadata,
    encode_metadata,
)
from repro.octree.compress import CompressedField
from repro.octree.interpolate import reconstruct_box, reconstruct_dense
from repro.octree.sampling import (
    BandedRatePolicy,
    BoxRatePolicy,
    SamplingPattern,
    build_adaptive_pattern,
    build_box_pattern,
    build_flat_pattern,
)
from repro.octree.algebra import add, same_pattern, scale
from repro.octree.serialize import deserialize_compressed, serialize_compressed
from repro.octree.error_bounds import (
    hessian_magnitude,
    pipeline_error_bound,
    radial_hessian_envelope,
    trilinear_cell_bound,
)
from repro.octree.tree import Octree

__all__ = [
    "add",
    "scale",
    "same_pattern",
    "serialize_compressed",
    "deserialize_compressed",
    "trilinear_cell_bound",
    "hessian_magnitude",
    "radial_hessian_envelope",
    "pipeline_error_bound",
    "OctreeCell",
    "METADATA_INTS_PER_CELL",
    "encode_metadata",
    "decode_metadata",
    "Octree",
    "BandedRatePolicy",
    "BoxRatePolicy",
    "SamplingPattern",
    "build_adaptive_pattern",
    "build_box_pattern",
    "build_flat_pattern",
    "CompressedField",
    "reconstruct_dense",
    "reconstruct_box",
]
