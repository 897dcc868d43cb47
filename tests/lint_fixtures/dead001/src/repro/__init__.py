"""A bare re-export is not a use."""

from repro.mod import only_reexported

__all__ = ["only_reexported"]
