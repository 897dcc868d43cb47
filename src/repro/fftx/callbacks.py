"""FFTX callback registry.

"Instead of users writing their own callback functions, FFTX API calls can
be used in the code, just like calling a library" (§6) — but the Fig 5
sketch still names three callbacks the MASSIF pipeline attaches to its
sub-plans.  This registry provides them as library-supplied callbacks and
lets applications register their own:

- ``complex_scaling`` — the pointwise kernel multiply.
- ``adaptive_sampling`` — the compression applied inside the inverse
  transform (prune the output to the octree coordinate sets).
- ``copy_offset`` — "responsible for placing the samples in the right
  place in the output array".
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.errors import ConfigurationError

Callback = Callable[..., np.ndarray]

_REGISTRY: Dict[str, Callback] = {}


def register_callback(name: str, fn: Callback) -> None:
    """Register (or replace) a named callback."""
    if not name:
        raise ConfigurationError("callback name must be non-empty")
    if not callable(fn):
        raise ConfigurationError(f"callback {name!r} is not callable")
    _REGISTRY[name] = fn


def get_callback(name: str) -> Callback:
    """Look up a callback by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown callback {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


# -- library-supplied callbacks (Fig 5) ---------------------------------------

def complex_scaling(spectrum: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Pointwise multiply with the convolution kernel spectrum."""
    return spectrum * kernel


def adaptive_sampling(values: np.ndarray, coords: np.ndarray, axis: int) -> np.ndarray:
    """Keep only the retained coordinates along ``axis`` (post-stage prune)."""
    return np.take(values, coords, axis=axis)


def copy_offset(
    out: np.ndarray, values: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Scatter flat ``values`` into ``out`` at flat ``indices`` (in place)."""
    out.ravel()[indices] = values
    return out


register_callback("complex_scaling", complex_scaling)
register_callback("adaptive_sampling", adaptive_sampling)
register_callback("copy_offset", copy_offset)
