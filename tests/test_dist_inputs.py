"""Input distribution: scattered blocks and rank-side kernel spectra.

A rank receives the ``k^3`` blocks it convolves and nothing else of the
field, and a kernel reaches a rank only with a job message whose driver
knows the rank's table lacks the kernel's content key.  The obligations,
as tests:

- **Bitwise over every mode**: rank count x transport x exchange mode x
  field shape (dense, half-cube, all-zero, one rank left with nothing),
  with generated field contents and kernels, assembles to exactly
  ``run_serial``'s grid — and the ``bcast`` wire category carries exactly
  the predicted blocks plus a computable handful of framing bytes: no
  kernel, key or answer ever crosses the mesh.
- **Kernels ship on a miss only**: on a standing pool, cold once, a
  second kernel once, the first again never, and once more after an
  eviction.
- **Hostile bytes**: a malformed scatter frame raises
  :class:`InputFrameError` with the offending offset before anything is
  allocated from its lengths; an attached kernel array of the wrong
  shape or dtype, or one that does not hash to its key, is rejected and
  never cached, and a key a rank lacks with nothing attached fails it.
- **No n^3 on a non-root rank**: what a non-root ``rank_main`` allocates
  before it starts convolving (traced) is its blocks, a fraction of one
  field.
- ``compute_s`` / ``exchange_s`` are read from the communicator's clock.
"""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import DomainDecomposition
from repro.dist.collectives import TAG_FIELD, Communicator
from repro.dist.inputs import (
    decode_blocks,
    encode_blocks,
    job_spectrum,
    kernel_key,
)
from repro.dist.launcher import assemble_blocks, predicted_input_bytes
from repro.dist.ledger import merge_wire_snapshots
from repro.dist.transport import LocalFabric
from repro.dist.wire import HEADER_BYTES
from repro.dist.worker import DistConfig, build_pipeline, rank_main
from repro.errors import InputFrameError
from repro.kernels.gaussian import GaussianKernel
from repro.util.clock import Clock
from repro.pool import private_pool
from repro.util.lru import WeightedLRU
from tests.test_dist_rank_loop import _run_ranks
from tests.test_dist_transport import _tcp_mesh

N, K = 16, 4
SHAPE = dict(n=N, k=K, sigma=2.0, policy="flat:2")
BLOCK_BYTES = 8 * K**3
#: a scatter frame's own header
SCATTER_HEADER = 16


def _spectrum(sigma: float) -> np.ndarray:
    return GaussianKernel(n=N, sigma=sigma).spectrum()


def _field(kind: str, seed: int, ranks: int) -> np.ndarray:
    """One ``N^3`` field of the named shape, contents from ``seed``."""
    values = np.random.default_rng(seed).standard_normal((N, N, N))
    field = np.zeros((N, N, N))
    if kind == "dense":
        field[:] = values
    elif kind == "half-cube":
        q = N // 4
        inner = (slice(q, N - q),) * 3
        field[inner] = values[inner]
    elif kind == "one-rank-gets-nothing":
        # every active sub-domain belongs to one rank: the last one
        decomp = DomainDecomposition(n=N, k=K)
        for sub in decomp.assign_round_robin(ranks)[ranks - 1][:3]:
            field[sub.slices()] = values[sub.slices()]
    else:
        assert kind == "all-zero"
    return field


def _transports(transport: str, ranks: int):
    if transport == "tcp":
        return _tcp_mesh(ranks)
    fabric = LocalFabric(ranks)
    return [fabric.endpoint(r) for r in range(ranks)]


def _bcast_bytes(results) -> int:
    totals = merge_wire_snapshots(r.wire for r in results.values())
    return totals.get("sent.bcast.bytes", 0)


def _input_framing(ranks: int, blocks: int) -> int:
    """Everything under ``bcast`` that is not a block: per peer one
    scatter frame, and an 8-byte index per block."""
    return (ranks - 1) * (HEADER_BYTES + SCATTER_HEADER) + 8 * blocks


# -- bitwise + exact accounting over every mode ---------------------------
@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
@pytest.mark.parametrize("transport", ["local", "tcp"])
@pytest.mark.parametrize("ranks", [1, 2, 3, 4])
@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(
        ["dense", "half-cube", "all-zero", "one-rank-gets-nothing"]
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    sigma=st.sampled_from([None, 1.5, 2.5]),
)
def test_scattered_job_is_bitwise_serial_and_input_is_accounted(
    ranks, transport, overlap, kind, seed, sigma
):
    config = DistConfig(num_ranks=ranks, overlap=overlap, **SHAPE)
    field = _field(kind, seed, ranks)
    # None: the descriptor path, every rank evaluates the default kernel
    spectrum = None if sigma is None else _spectrum(sigma)
    results = _run_ranks(_transports(transport, ranks), config, field, spectrum)

    blocks = sum(r.num_chunks for rank, r in results.items() if rank)
    assert predicted_input_bytes(config, _active(config, field)) == BLOCK_BYTES * blocks
    # a cold job hands every rank the kernel; none of it crosses the mesh
    assert _bcast_bytes(results) == BLOCK_BYTES * blocks + _input_framing(ranks, blocks)

    serial = build_pipeline(config, spectrum).run_serial(field)
    assert np.array_equal(assemble_blocks(config, results), serial.approx)


def _active(config, field):
    """The indices of ``field``'s active sub-domains, as the driver finds them."""
    decomp = DomainDecomposition(n=config.n, k=config.k)
    return [sub.index for sub in decomp.active_subdomains(field)]


# -- kernels ship on a miss only ------------------------------------------
@pytest.mark.parametrize("ranks", [2, 3])
def test_kernel_ships_once_per_miss_and_again_after_eviction(ranks, monkeypatch):
    """On a standing pool whose rank tables hold two kernels, the driver
    attaches a kernel to the job messages of exactly the ranks that lack
    it: the control bytes count whole kernels shipped."""
    import repro.dist.agent as agent

    config = DistConfig(num_ranks=ranks, transport="tcp", **SHAPE)
    field = _field("half-cube", 7, ranks)
    a, b, c = _spectrum(1.5), _spectrum(2.0), _spectrum(2.5)
    # room for two kernels: a third evicts the least recently used (the
    # agents are forked after the patch, so they inherit it)
    monkeypatch.setattr(agent, "SPECTRUM_TABLE_BYTES", 2 * a.nbytes)
    # a job's messages without a kernel are a fraction of one kernel
    assert len(_active(config, field)) * BLOCK_BYTES < a.nbytes // 4

    with private_pool(ranks) as pool:

        def shipped(spectrum) -> int:
            report = pool.submit(config, field=field, spectrum=spectrum)
            serial = build_pipeline(config, spectrum).run_serial(field)
            assert np.array_equal(report.approx, serial.approx)
            assert report.input_wire_bytes == report.predicted_input_bytes + (
                _input_framing(ranks, report.predicted_input_bytes // BLOCK_BYTES)
            )
            return report.control_in_bytes // a.nbytes

        assert shipped(a) == ranks  # cold: to every rank, once
        assert shipped(b) == ranks  # a second kernel: once
        assert shipped(a) == 0  # the first again: nothing
        assert shipped(c) == ranks  # a third: ships, evicts b (LRU)
        assert shipped(a) == 0  # a survived the eviction
        assert shipped(b) == ranks  # b did not: exactly one re-ship
        assert shipped(b) == 0


def test_default_kernel_never_ships_and_is_evaluated_once_per_table():
    config = DistConfig(num_ranks=2, **SHAPE)
    field = _field("half-cube", 3, 2)
    tables = [WeightedLRU(1 << 20) for _ in range(2)]
    blocks = predicted_input_bytes(config, _active(config, field)) // BLOCK_BYTES
    for _ in range(2):
        results = _run_ranks(
            _transports("local", 2), config, field, None, tables=tables
        )
        assert _bcast_bytes(results) == BLOCK_BYTES * blocks + _input_framing(2, blocks)
    for table in tables:
        assert (len(table), table.misses, table.hits) == (1, 1, 1)


# -- hostile bytes --------------------------------------------------------
DECOMP = DomainDecomposition(n=N, k=K)
OWNED = {sub.index for sub in DECOMP.assign_round_robin(2)[1]}


def _scatter_frame(indices, count=None, k=K, blocks=None) -> bytes:
    count = len(indices) if count is None else count
    blocks = len(indices) if blocks is None else blocks
    return (
        struct.pack("<qq", count, k)
        + struct.pack(f"<{len(indices)}q", *indices)
        + bytes(blocks * BLOCK_BYTES)
    )


class TestHostileScatterFrame:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        chunks = [(DECOMP.subdomain(i), rng.standard_normal((K,) * 3)) for i in (1, 5)]
        frame = encode_blocks(K, chunks).tobytes()
        decoded = decode_blocks(frame, DECOMP, OWNED)
        assert [sub.index for sub, _b in decoded] == [1, 5]
        for (_s, sent), (_t, got) in zip(chunks, decoded):
            assert np.array_equal(sent, got)

    @pytest.mark.parametrize(
        "frame, offset, match",
        [
            (b"\x00" * 9, 9, "truncated scatter header"),
            (_scatter_frame([1, 3], k=8), 8, "carries k=8"),
            # length is not count * k^3 * 8 + header
            (_scatter_frame([1, 3]) + b"\x00", 16 + 16 + 2 * BLOCK_BYTES, "bytes"),
            (_scatter_frame([1, 3], blocks=1), 16 + 16 + BLOCK_BYTES, "bytes"),
            # a count that would imply an allocation beyond the grid
            (_scatter_frame([], count=1 << 40), 0, "declares"),
            (_scatter_frame([], count=-1), 0, "declares"),
            (_scatter_frame([1, 64]), 24, "out of range"),
            (_scatter_frame([1, -3]), 24, "out of range"),
            (_scatter_frame([1, 2]), 24, "another rank's"),
            (_scatter_frame([3, 1, 3]), 32, "twice"),
        ],
    )
    def test_rejected_with_offset(self, frame, offset, match):
        with pytest.raises(InputFrameError, match=match) as err:
            decode_blocks(frame, DECOMP, OWNED)
        assert err.value.offset == offset

    def test_hostile_scatter_fails_the_rank_not_the_process(self):
        """Over a live fabric the typed error surfaces from rank_main."""
        config = DistConfig(num_ranks=2, **SHAPE)
        fabric = LocalFabric(2)
        root = Communicator(fabric.endpoint(0), recv_timeout_s=5.0)
        victim = Communicator(fabric.endpoint(1), recv_timeout_s=5.0)
        root.send_payload(1, _scatter_frame([2]), TAG_FIELD)
        with pytest.raises(InputFrameError, match="another rank's"):
            rank_main(victim, config)


class TestHostileSpectrum:
    """A kernel array reaches a rank only attached to its job message,
    under the key the job names; the rank checks it before caching it."""

    CONFIG = DistConfig(num_ranks=2, **SHAPE)

    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<c8", "<c16"])
    def test_round_trip(self, dtype):
        spectrum = np.random.default_rng(1).standard_normal((N, N, N)).astype(dtype)
        key = kernel_key(spectrum)
        table = WeightedLRU(1 << 20)
        kept = job_spectrum(self.CONFIG, key, spectrum, table)
        assert kept.dtype == spectrum.dtype and np.array_equal(kept, spectrum)
        # a private read-only copy: the sender's array is not kept
        assert kept is not spectrum and not kept.flags.writeable
        # a later job naming the key alone gets the same array
        assert job_spectrum(self.CONFIG, key, None, table) is kept

    def test_digest_covers_dtype_shape_and_bytes(self):
        base = _spectrum(2.0)
        zero, negative_zero = base.copy(), base.copy()
        zero[0, 0, 0], negative_zero[0, 0, 0] = 0.0, -0.0
        keys = {
            kernel_key(variant)
            for variant in (base, base.astype(np.float32), base + 1e-9,
                            base.reshape(N, N * N, 1), zero, negative_zero)
        }
        assert len(keys) == 6
        # the key is of the array, not of its memory layout
        assert kernel_key(base) == kernel_key(np.asfortranarray(base))

    @pytest.mark.parametrize(
        "mangle, match",
        [
            (lambda s: s[:, :, : N // 2], "shape"),
            (lambda s: s.astype(np.int64), "dtype"),
            (lambda s: s.astype(">f8"), "dtype"),
            (lambda s: np.array(s, dtype=object), "dtype"),
        ],
        ids=["shape", "int64", "big-endian", "object"],
    )
    def test_malformed_array_fails_the_rank_and_is_never_cached(self, mangle, match):
        spectrum = mangle(_spectrum(2.0))
        table = WeightedLRU(1 << 20)
        key = kernel_key(_spectrum(2.0))
        with pytest.raises(InputFrameError, match=match):
            rank_main(_victim(), self.CONFIG, kernel_key=key, spectrum=spectrum, spectra=table)
        assert len(table) == 0

    def test_spectrum_not_matching_its_digest_is_rejected_and_never_cached(self):
        announced = kernel_key(_spectrum(2.0))
        table = WeightedLRU(1 << 20)
        with pytest.raises(InputFrameError, match="does not hash"):
            rank_main(
                _victim(), self.CONFIG, kernel_key=announced,
                spectrum=_spectrum(2.5), spectra=table,
            )
        assert len(table) == 0 and table.get(announced) is None

    @pytest.mark.parametrize("key", [b"", b"H" + b"\x00" * 8, b"X" * 33])
    def test_unknown_announcement_is_rejected(self, key):
        """A job that names a key the rank lacks, with no array
        attached, fails the rank: its driver's view was stale."""
        for table in (WeightedLRU(1 << 20), None):
            with pytest.raises(InputFrameError, match="neither holds nor was sent"):
                rank_main(_victim(), self.CONFIG, kernel_key=key, spectra=table)


def _victim() -> Communicator:
    """Rank 1 of a two-rank fabric whose rank 0 sends nothing."""
    return Communicator(LocalFabric(2).endpoint(1), recv_timeout_s=5.0)


# -- a non-root rank never holds an n^3 array -----------------------------
class _ReachedCompute(Exception):
    pass


def test_non_root_rank_allocates_its_blocks_not_the_field():
    """Everything a non-root rank allocates up to the moment it starts
    convolving — kernel lookup, scatter frame, pipeline —
    is traced; it must hold its own blocks and nothing ``n^3``-sized.

    Rank 0 is scripted and its frames are allocated before tracing
    starts, and the kernel is already in the rank's table.  The pipeline's
    §3.1 check on that kernel walks it a few x-planes at a time, so it
    allocates nothing ``n^3``-sized either.
    """
    n, k = 64, 8
    config = DistConfig(
        n=n, k=k, sigma=2.0, policy="flat:4", num_ranks=2,
        fail_rank=1, fail_stage="before_compute",
    )
    decomp = DomainDecomposition(n=n, k=k)
    field = np.zeros((n, n, n))
    rng = np.random.default_rng(5)
    own = decomp.assign_round_robin(2)[1][:3]
    for sub in own:
        field[sub.slices()] = rng.standard_normal((k, k, k))
    spectrum = GaussianKernel(n=n, sigma=2.0).spectrum()

    fabric = LocalFabric(2)
    root = Communicator(fabric.endpoint(0))
    key = kernel_key(spectrum)
    table = WeightedLRU(1 << 30)
    table.put(key, spectrum, spectrum.nbytes)
    root.send_payload(1, encode_blocks(k, decomp.active_blocks(field, own)), TAG_FIELD)
    victim = Communicator(fabric.endpoint(1), recv_timeout_s=20.0)
    peaks = []

    def reached_compute():
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise _ReachedCompute

    tracemalloc.start()
    try:
        with pytest.raises(_ReachedCompute):
            rank_main(victim, config, kernel_key=key, abort=reached_compute, spectra=table)
    finally:
        tracemalloc.stop()
    assert peaks and peaks[0] < field.nbytes // 8


# -- the injected clock ---------------------------------------------------
class _TickClock(Clock):
    """Advances one second per reading."""

    def __init__(self):
        self.t = 0.0

    def now(self) -> float:
        self.t += 1.0
        return self.t


@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
def test_phase_times_are_read_from_the_communicators_clock(overlap):
    config = DistConfig(num_ranks=1, overlap=overlap, **SHAPE)
    comm = Communicator(LocalFabric(1).endpoint(0), clock=_TickClock())
    blocks = list(DomainDecomposition(n=N, k=K).active_blocks(_field("half-cube", 0, 1)))
    result = rank_main(comm, config, blocks=blocks)
    # four readings: compute start / end, exchange start / end
    assert (result.compute_s, result.exchange_s) == (1.0, 1.0)
    assert comm.clock.t == 4.0
