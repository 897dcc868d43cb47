"""The one rank loop, bitwise: exchange mode x fresh/resumed x rank count.

``rank_main`` is a single loop over a rank's sub-domains that the
checkpoint does not already hold; barrier and streamed exchange, and a
fresh job and one resumed from a partial checkpoint, are the same code
with different inputs.  Every combination must assemble to exactly
``run_serial``'s grid, and a resumed job must compute only what its
checkpoint lacks, in the exchange mode its config asks for.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.checkpoint import checkpoint_to_bytes
from repro.core.decomposition import DomainDecomposition
from repro.dist.collectives import Communicator
from repro.dist.inputs import KernelBook, default_spectrum
from repro.dist.launcher import assemble_blocks
from repro.dist.transport import LocalFabric
from repro.dist.worker import DistConfig, build_pipeline, composite_field, rank_main
from tests.test_dist_transport import _tcp_mesh

SHAPE = dict(n=16, k=4, sigma=2.0, policy="flat:2")


@pytest.fixture(scope="module")
def reference():
    config = DistConfig(**SHAPE)
    field = composite_field(config.n, config.seed)
    spectrum = default_spectrum(config)
    serial = build_pipeline(config, spectrum).run_serial(field)
    return field, spectrum, serial


def _run_ranks(transports, config, field, spectrum, checkpoint=None, tables=None):
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
            checkpoint=checkpoint if root else None,
            resumed=checkpoint is not None,
            spectra=table,
        )

    try:
        with ThreadPoolExecutor(max_workers=len(comms)) as pool:
            futures = [pool.submit(run, comm) for comm in comms]
            return {r: f.result(timeout=60) for r, f in enumerate(futures)}
    finally:
        for comm in comms:
            comm.close()


def _check(transports, overlap, resumed, reference):
    field, spectrum, serial = reference
    config = DistConfig(num_ranks=len(transports), overlap=overlap, **SHAPE)
    # a strict subset of the active sub-domains, spread over the ranks
    held = serial.per_domain[::2] if resumed else []
    checkpoint = checkpoint_to_bytes(held) if resumed else None
    results = _run_ranks(transports, config, field, spectrum, checkpoint)

    computed = sum(r.num_chunks for r in results.values())
    assert computed == len(serial.per_domain) - len(held)
    for result in results.values():
        assert result.overlap == overlap
        frames = result.num_chunks + 1 if overlap else 1
        assert result.exchange_frames_per_peer == frames
    assert np.array_equal(assemble_blocks(config, results), serial.approx)


@pytest.mark.parametrize("ranks", [1, 2, 3])
@pytest.mark.parametrize("resumed", [False, True], ids=["fresh", "resumed"])
@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "streamed"])
def test_rank_loop_is_bitwise_serial_local(overlap, resumed, ranks, reference):
    fabric = LocalFabric(ranks)
    transports = [fabric.endpoint(r) for r in range(ranks)]
    _check(transports, overlap, resumed, reference)


def test_resumed_streamed_is_bitwise_serial_tcp(reference):
    _check(_tcp_mesh(2), overlap=True, resumed=True, reference=reference)
