"""Composite microstructure generators.

"MASSIF runs a stress-strain computation on a 3D grid which represents the
discretized microstructure of a composite material" (§2.2).  These
generators produce the integer phase maps :class:`~repro.massif.elasticity.
StiffnessField` consumes: spherical inclusions (classic two-phase
composites), layered laminates (analytically checkable), and Voronoi
polycrystals (the paper's "micromechanical properties of polycrystals"
use case).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_positive_int


def _coords(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    idx = np.arange(n)
    return (
        idx.reshape(n, 1, 1),
        idx.reshape(1, n, 1),
        idx.reshape(1, 1, n),
    )


def _periodic_dist2(
    n: int, center: Sequence[float]
) -> np.ndarray:
    """Squared minimum-image distance to ``center`` on the periodic grid."""
    x, y, z = _coords(n)
    out = np.zeros((n, n, n))
    for axis_coord, c in zip((x, y, z), center):
        d = np.abs(axis_coord - float(c))
        d = np.minimum(d, n - d)
        out = out + d * d
    return out


def sphere_inclusion(
    n: int, center: Sequence[float] | None = None, radius: float | None = None
) -> np.ndarray:
    """Two-phase map: phase 1 inside a (periodic) sphere, phase 0 outside.

    Defaults: centered, radius ``n/4`` (about 6.5% volume fraction).
    """
    n = check_positive_int(n, "n")
    if center is None:
        center = (n / 2, n / 2, n / 2)
    if radius is None:
        radius = n / 4
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    return (_periodic_dist2(n, center) < radius * radius).astype(np.int64)


def voronoi_polycrystal(
    n: int,
    num_grains: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Periodic Voronoi tessellation: each voxel labeled by nearest seed.

    The discretized polycrystal microstructure of the MASSIF literature;
    labels run ``0 .. num_grains - 1``.
    """
    n = check_positive_int(n, "n")
    num_grains = check_positive_int(num_grains, "num_grains")
    rng = rng or np.random.default_rng()
    seeds = rng.uniform(0, n, size=(num_grains, 3))
    best_d2 = np.full((n, n, n), np.inf)
    labels = np.zeros((n, n, n), dtype=np.int64)
    for g, seed in enumerate(seeds):
        d2 = _periodic_dist2(n, seed)
        closer = d2 < best_d2
        labels[closer] = g
        best_d2 = np.where(closer, d2, best_d2)
    return labels
