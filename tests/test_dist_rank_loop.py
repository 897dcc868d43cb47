"""The one rank loop, bitwise: exchange mode x fresh/warm x rank count.

``rank_main`` is a single loop over a rank's active sub-domains; barrier
and streamed exchange, and a fresh rank and a warm one (a second job on
standing spectrum tables, the kernel named by its key and not attached),
are the same code with different inputs.  Every combination must
assemble to exactly ``run_serial``'s grid, computing each active
sub-domain once, in the exchange mode its config asks for.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.decomposition import DomainDecomposition
from repro.dist.collectives import Communicator
from repro.dist.inputs import KernelBook, default_spectrum
from repro.dist.launcher import assemble_blocks
from repro.dist.transport import LocalFabric
from repro.dist.worker import DistConfig, build_pipeline, composite_field, rank_main
from repro.util.lru import WeightedLRU
from tests.test_dist_transport import _tcp_mesh

SHAPE = dict(n=16, k=4, sigma=2.0, policy="flat:2")


@pytest.fixture(scope="module")
def reference():
    config = DistConfig(**SHAPE)
    field = composite_field(config.n, config.seed)
    spectrum = default_spectrum(config)
    serial = build_pipeline(config, spectrum).run_serial(field)
    return field, spectrum, serial


def _run_ranks(transports, config, field, spectrum, tables=None):
    """Run ``rank_main`` on one thread per transport endpoint; ``tables``
    are the ranks' standing spectrum tables.  Rank 0 is handed ``field``'s
    active blocks, as a driver cuts them.  A cold job (``tables=None``)
    hands every rank ``spectrum`` and keys nothing; with tables, the job
    names the kernel by its key and attaches the array only for a rank
    whose table lacks it, as the pool's driver does."""
    comms = [Communicator(t, recv_timeout_s=20.0) for t in transports]
    blocks = list(DomainDecomposition(n=config.n, k=config.k).active_blocks(field))
    key = None
    if tables is not None:
        key, spectrum = KernelBook().name(config, spectrum)

    def run(comm):
        root = comm.rank == 0
        table = None if tables is None else tables[comm.rank]
        held = () if table is None else [held for held, _array in table.items()]
        return rank_main(
            comm,
            config,
            blocks=blocks if root else None,
            kernel_key=key,
            spectrum=None if key in held else spectrum,
            spectra=table,
        )

    try:
        with ThreadPoolExecutor(max_workers=len(comms)) as pool:
            futures = [pool.submit(run, comm) for comm in comms]
            return {r: f.result(timeout=60) for r, f in enumerate(futures)}
    finally:
        for comm in comms:
            comm.close()


def _check(mesh, ranks, overlap, warm, reference):
    """Run a job on ``mesh(ranks)`` transports — after a first job that
    fills the ranks' spectrum tables, when ``warm`` — and check it."""
    field, spectrum, serial = reference
    config = DistConfig(num_ranks=ranks, overlap=overlap, **SHAPE)
    tables = [WeightedLRU(1 << 20) for _ in range(ranks)] if warm else None
    if warm:
        _run_ranks(mesh(ranks), config, field, spectrum, tables)
    results = _run_ranks(mesh(ranks), config, field, spectrum, tables)

    computed = sum(r.num_chunks for r in results.values())
    assert computed == len(serial.per_domain)
    for result in results.values():
        assert result.overlap == overlap
        frames = result.num_chunks + 1 if overlap else 1
        assert result.exchange_frames_per_peer == frames
    assert np.array_equal(assemble_blocks(config, results), serial.approx)


def _local_mesh(ranks):
    fabric = LocalFabric(ranks)
    return [fabric.endpoint(r) for r in range(ranks)]


@pytest.mark.parametrize("ranks", [1, 2, 3])
@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "streamed"])
def test_rank_loop_is_bitwise_serial_local(overlap, warm, ranks, reference):
    _check(_local_mesh, ranks, overlap, warm, reference)


def test_warm_streamed_is_bitwise_serial_tcp(reference):
    _check(_tcp_mesh, 2, overlap=True, warm=True, reference=reference)
