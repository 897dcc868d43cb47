"""FFTX sub-plans: transforms, pointwise ops, and data movement.

Each sub-plan is a named step reading one buffer from the execution
environment and writing another — the structure of Fig 5, where four
sub-plans (pruned r2c, pointwise, pruned c2r with sampling, copy-out)
compose into the MASSIF convolution.  Sub-plans also carry flop/workspace
estimates for the optimizer.

The sub-plans spell :class:`~repro.core.local_conv.LocalConvolution`'s
stages declaratively; they do not re-implement them: the compressed
inverse runs the complex :class:`~repro.fft.pruned_plan.PrunedPlan`'s
``idft_z`` / ``idft_y`` / ``idft_x`` and the copy-out gathers through the
pattern's ``box_gather_index``.  Only the forward sub-plan differs in
kind: it publishes the whole ``n^3`` spectrum as a named buffer, which the
pipeline never materializes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, PlanError
from repro.fft.pruned import pruned_fft3
from repro.fft.pruned_plan import get_plan
from repro.fftx.callbacks import get_callback
from repro.fftx.iodim import IODim
from repro.octree.compress import CompressedField
from repro.octree.sampling import SamplingPattern

Env = Dict[str, Any]


@dataclass
class SubPlan:
    """Base sub-plan: a named step ``env[out_name] = f(env[in_name])``."""

    kind: str
    in_name: str
    out_name: str
    flags: int = 0
    params: Dict[str, Any] = field(default_factory=dict)

    def apply(self, env: Env) -> None:  # pragma: no cover - abstract
        raise PlanError(f"sub-plan kind {self.kind!r} has no apply")

    def flops_estimate(self) -> float:
        return 0.0

    def workspace_estimate(self) -> int:
        return 0

    def _read(self, env: Env) -> Any:
        if self.in_name not in env:
            raise PlanError(
                f"sub-plan {self.kind!r} needs buffer {self.in_name!r}; "
                f"available: {sorted(env)}"
            )
        return env[self.in_name]


@dataclass
class DftR2CPlan(SubPlan):
    """Pruned-input forward 3D transform of a real sub-cube.

    ``dims`` describe the padded grid and the data placement; the result is
    the full complex spectrum buffer (the slab/pencil staging happens
    inside the pruned transform).
    """

    dims: Tuple[IODim, IODim, IODim] = ()
    batch: Optional[int] = None

    def apply(self, env: Env) -> None:
        sub = np.asarray(self._read(env), dtype=np.float64)
        expected = tuple(d.extent for d in self.dims)
        if sub.shape != expected:
            raise PlanError(f"r2c input shape {sub.shape} != iodims {expected}")
        n = self.dims[0].n
        if any(d.n != n for d in self.dims):
            raise PlanError("r2c requires a cubic padded grid")
        corner = tuple(d.offset for d in self.dims)
        env[self.out_name] = pruned_fft3(sub, corner, n, batch=self.batch)

    def flops_estimate(self) -> float:
        n = self.dims[0].n
        k = self.dims[0].extent
        lg = math.log2(n) if n > 1 else 0.0
        return 5.0 * n * lg * (k * k + n * k + n * n)

    def workspace_estimate(self) -> int:
        n = self.dims[0].n
        k = self.dims[0].extent
        return 16 * n * n * k  # the slab


@dataclass
class PointwiseC2CPlan(SubPlan):
    """Pointwise operation via a registered callback (kernel multiply)."""

    callback: str = "complex_scaling"

    def apply(self, env: Env) -> None:
        spectrum = self._read(env)
        kernel = self.params.get("kernel")
        if kernel is None:
            raise PlanError("pointwise sub-plan needs params['kernel']")
        env[self.out_name] = get_callback(self.callback)(spectrum, kernel)

    def flops_estimate(self) -> float:
        kernel = self.params.get("kernel")
        return 6.0 * np.asarray(kernel).size if kernel is not None else 0.0


@dataclass
class DftC2RPlan(SubPlan):
    """Pruned-output inverse transform with the sampling callback.

    Evaluates the inverse only at the per-axis retained coordinate sets
    (the ``adaptive_sampling`` attachment point of Fig 5); outputs the
    real-valued ``(|X|, |Y|, |Z|)`` box.
    """

    coords: Tuple[Sequence[int], Sequence[int], Sequence[int]] = ()
    callback: str = "adaptive_sampling"

    def apply(self, env: Env) -> None:
        spectrum = np.asarray(self._read(env), dtype=np.complex128)
        n = spectrum.shape[0]
        plan = get_plan(n, *self.coords)
        zred = plan.idft_z(spectrum.reshape(n * n, n))
        yred = plan.idft_y(zred.reshape(n, n, plan.mz))
        env[self.out_name] = np.real(plan.idft_x(yred))

    def flops_estimate(self) -> float:
        # one dense matmul per axis over the shrinking intermediate
        # (8 flops per complex multiply-add); coarse lower-bound estimate
        sizes = [len(c) for c in self.coords]
        return 8.0 * (sizes[0] * sizes[1] * sizes[2]) * 3

    def workspace_estimate(self) -> int:
        sizes = [len(c) for c in self.coords]
        return 16 * sizes[0] * sizes[1] * sizes[2]


@dataclass
class CopyPlan(SubPlan):
    """Gather the octree samples from the sampled box into the compressed
    output ("copy out the rank-dimensional data cube in the right place")."""

    pattern: Optional[SamplingPattern] = None
    callback: str = "copy_offset"

    def apply(self, env: Env) -> None:
        box = np.asarray(self._read(env))
        if self.pattern is None:
            raise PlanError("copy sub-plan needs a sampling pattern")
        pattern = self.pattern
        values = np.empty(pattern.sample_count, dtype=np.float64)
        get_callback(self.callback)(
            values,
            np.take(box.reshape(-1), pattern.box_gather_index),
            np.arange(values.size),
        )
        env[self.out_name] = CompressedField(pattern=pattern, values=values)


def plan_guru_dft_r2c(
    dims: Sequence[IODim],
    in_name: str,
    out_name: str,
    flags: int = 0,
    batch: Optional[int] = None,
) -> DftR2CPlan:
    """Plan a pruned-input real-to-complex 3D transform (Fig 5, plans[0])."""
    dims = tuple(dims)
    if len(dims) != 3:
        raise ConfigurationError(f"rank-3 transform needs 3 iodims, got {len(dims)}")
    return DftR2CPlan(
        kind="dft_r2c",
        in_name=in_name,
        out_name=out_name,
        flags=flags,
        dims=dims,
        batch=batch,
    )


def plan_guru_pointwise_c2c(
    in_name: str,
    out_name: str,
    kernel: np.ndarray,
    callback: str = "complex_scaling",
    flags: int = 0,
) -> PointwiseC2CPlan:
    """Plan the kernel multiply (Fig 5, plans[1])."""
    return PointwiseC2CPlan(
        kind="pointwise_c2c",
        in_name=in_name,
        out_name=out_name,
        flags=flags,
        callback=callback,
        params={"kernel": np.asarray(kernel)},
    )


def plan_guru_dft_c2r(
    in_name: str,
    out_name: str,
    coords: Tuple[Sequence[int], Sequence[int], Sequence[int]],
    callback: str = "adaptive_sampling",
    flags: int = 0,
) -> DftC2RPlan:
    """Plan the compressed inverse transform (Fig 5, plans[2])."""
    if len(coords) != 3:
        raise ConfigurationError("need retained coordinate sets for 3 axes")
    return DftC2RPlan(
        kind="dft_c2r",
        in_name=in_name,
        out_name=out_name,
        flags=flags,
        coords=coords,
        callback=callback,
    )


def plan_guru_copy(
    in_name: str,
    out_name: str,
    pattern: SamplingPattern,
    flags: int = 0,
) -> CopyPlan:
    """Plan the sample copy-out (Fig 5, plans[3]): the box being copied
    from must span ``pattern``'s per-axis coordinate sets."""
    return CopyPlan(
        kind="copy",
        in_name=in_name,
        out_name=out_name,
        flags=flags,
        pattern=pattern,
    )
