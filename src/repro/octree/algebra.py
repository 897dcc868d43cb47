"""Algebra on compressed fields sharing a sampling pattern.

Compressed fields over the SAME pattern form a vector space: sums and
scalings act directly on the sample values, with no reconstruction — the
operation the accumulation step uses when several sources share one
pattern (e.g. the six tensor components of a MASSIF sub-domain, or
several right-hand sides convolved against the same kernel).  Linearity
of sampling makes this exact: ``samples(a f + b g) = a samples(f) + b
samples(g)``.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.octree.compress import CompressedField


def same_pattern(a: CompressedField, b: CompressedField) -> bool:
    """Whether two compressed fields share an identical sampling pattern."""
    pa, pb = a.pattern, b.pattern
    return pa is pb or pa.geometry_key == pb.geometry_key


def add(a: CompressedField, b: CompressedField) -> CompressedField:
    """Exact sum of two compressed fields on one pattern."""
    if not same_pattern(a, b):
        raise ConfigurationError(
            "cannot add compressed fields with different sampling patterns"
        )
    return CompressedField(pattern=a.pattern, values=a.values + b.values)


def scale(a: CompressedField, factor: float) -> CompressedField:
    """Exact scalar multiple of a compressed field."""
    return CompressedField(pattern=a.pattern, values=float(factor) * a.values)
