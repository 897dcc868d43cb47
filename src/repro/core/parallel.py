"""Process-parallel sub-domain fan-out (the paper's "embarrassingly
parallel until the final exchange" structure, on real cores).

Sub-domain convolutions share *no* state until accumulation, so they
dispatch cleanly over a :class:`concurrent.futures.ProcessPoolExecutor`.
The two large read-only inputs — the global field and the dense kernel
spectrum — are placed in :mod:`multiprocessing.shared_memory` segments
once and attached by every worker, so tasks carry only a sub-domain
*index* across the process boundary and results carry only the compressed
sample values (the parent re-derives patterns from its own cache).  This
avoids pickling the ``n^3`` arrays per task, which would otherwise cost
more than the convolutions themselves.

Worker processes build their :class:`~repro.core.local_conv.LocalConvolution`
once in the pool initializer and keep per-process pattern/plan caches, so
plan reuse carries over to the parallel path.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.decomposition import DomainDecomposition
from repro.core.local_conv import KernelSpectrum, LocalConvolution, PencilOperator
from repro.core.policy import SamplingPolicy
from repro.errors import ConfigurationError

#: Per-process worker state, populated by :func:`_init_worker`.
_WORKER_STATE: Dict[str, object] = {}


def default_workers() -> int:
    """Default process count: every available core."""
    return os.cpu_count() or 1


def resolve_workers(num_tasks: int, max_workers: Optional[int] = None) -> int:
    """The worker count a fan-out of ``num_tasks`` will actually use.

    Mirrors :func:`convolve_subdomains_parallel`'s sizing (never more
    processes than tasks; default = all cores) so benchmark reports can
    record the true pool size instead of the requested one.
    """
    workers = max_workers if max_workers is not None else default_workers()
    if workers < 1:
        raise ConfigurationError(f"need >= 1 worker process, got {workers}")
    return min(workers, max(1, num_tasks))


def _attach(name: str, shape: Tuple[int, ...], dtype: str):
    # Note: with the default fork start method the workers share the
    # parent's resource tracker, which already owns cleanup of these
    # segments (the parent unlinks them in convolve_subdomains_parallel).
    shm = shared_memory.SharedMemory(name=name)
    return shm, np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


def _init_worker(
    field_meta: Tuple[str, Tuple[int, ...], str],
    kernel_meta: Optional[Tuple[str, Tuple[int, ...], str]],
    kernel_blob: Optional[bytes],
    n: int,
    k: int,
    policy: SamplingPolicy,
    batch: Optional[int],
    real_kernel: Optional[bool],
) -> None:
    """Pool initializer: attach shared inputs, build the local pipeline."""
    field_shm, field = _attach(*field_meta)
    if kernel_meta is not None:
        kernel_shm, kernel = _attach(*kernel_meta)
    else:
        kernel_shm, kernel = None, pickle.loads(kernel_blob)
    _WORKER_STATE.update(
        field_shm=field_shm,  # keep mappings alive for the process lifetime
        kernel_shm=kernel_shm,
        field=field,
        decomp=DomainDecomposition(n=n, k=k),
        policy=policy,
        patterns={},
        local=LocalConvolution(
            n=n,
            kernel_spectrum=kernel,
            policy=policy,
            batch=batch,
            real_kernel=real_kernel,
        ),
    )


def _convolve_one(index: int) -> Tuple[int, np.ndarray]:
    """Task body: convolve one sub-domain, return its compressed values."""
    decomp: DomainDecomposition = _WORKER_STATE["decomp"]
    sub = decomp.subdomain(index)
    block = decomp.extract(_WORKER_STATE["field"], sub)
    patterns: dict = _WORKER_STATE["patterns"]
    pattern = patterns.get(sub.corner)
    if pattern is None:
        pattern = _WORKER_STATE["policy"].pattern_for(decomp.n, decomp.k, sub.corner)
        patterns[sub.corner] = pattern
    local: LocalConvolution = _WORKER_STATE["local"]
    compressed = local.convolve(block, sub.corner, pattern=pattern)
    return index, compressed.values


def _share_array(arr: np.ndarray) -> Tuple[shared_memory.SharedMemory, Tuple]:
    shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
    view[...] = arr
    return shm, (shm.name, arr.shape, arr.dtype.str)


def convolve_subdomains_parallel(
    field: np.ndarray,
    n: int,
    k: int,
    kernel_spectrum: KernelSpectrum,
    policy: SamplingPolicy,
    indices: Sequence[int],
    batch: Optional[int] = None,
    real_kernel: Optional[bool] = None,
    max_workers: Optional[int] = None,
) -> List[Tuple[int, np.ndarray]]:
    """Convolve the given sub-domain ``indices`` across worker processes.

    Returns ``(index, values)`` pairs in ascending index order — the same
    order (and bitwise the same values) the serial loop produces.
    """
    if not indices:
        return []
    workers = resolve_workers(len(indices), max_workers)

    if callable(kernel_spectrum) or isinstance(kernel_spectrum, PencilOperator):
        try:
            kernel_blob = pickle.dumps(kernel_spectrum)
        except Exception as exc:
            raise ConfigurationError(
                "run_parallel needs a picklable kernel callable or operator (or "
                f"a dense spectrum array, which ships via shared memory): {exc}"
            ) from exc
        kernel_shm, kernel_meta = None, None
    else:
        kernel_blob = None
        kernel_shm, kernel_meta = _share_array(np.asarray(kernel_spectrum))

    field_shm, field_meta = _share_array(np.ascontiguousarray(field))
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                field_meta,
                kernel_meta,
                kernel_blob,
                n,
                k,
                policy,
                batch,
                real_kernel,
            ),
        ) as pool:
            chunksize = max(1, len(indices) // (4 * workers))
            results = list(
                pool.map(_convolve_one, sorted(indices), chunksize=chunksize)
            )
    finally:
        field_shm.close()
        field_shm.unlink()
        if kernel_shm is not None:
            kernel_shm.close()
            kernel_shm.unlink()
    return results
