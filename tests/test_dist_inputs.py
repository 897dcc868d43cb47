"""Input distribution: scattered blocks and rank-side kernel spectra.

A rank receives the ``k^3`` blocks it convolves and nothing else of the
field, and a kernel spectrum travels only to a rank whose table misses
its content digest.  The obligations, as tests:

- **Bitwise over every mode**: rank count x transport x exchange mode x
  field shape (dense, half-cube, all-zero, one rank left with nothing),
  with generated field contents and kernels, assembles to exactly
  ``run_serial``'s grid — and the ``bcast`` wire category carries exactly
  the predicted blocks plus a computable handful of framing bytes.
- **Kernels ship on a miss only**: cold once, a second kernel once, the
  first again never, and once more after an eviction; a resumed job
  scatters only the blocks its checkpoint lacks.
- **Hostile bytes**: a malformed scatter or spectrum frame raises
  :class:`InputFrameError` with the offending offset before anything is
  allocated from its lengths, and a spectrum that does not hash to its
  announced digest is rejected and never cached.
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

from repro.core.checkpoint import checkpoint_to_bytes
from repro.core.decomposition import DomainDecomposition
from repro.dist.collectives import (
    TAG_FIELD,
    TAG_SPECTRUM,
    TAG_SPECTRUM_KEY,
    Communicator,
)
from repro.dist.inputs import (
    decode_blocks,
    decode_spectrum,
    encode_blocks,
    encode_spectrum,
    share_spectrum,
    spectrum_digest,
)
from repro.dist.launcher import assemble_blocks, predicted_input_bytes
from repro.dist.ledger import merge_wire_snapshots
from repro.dist.transport import LocalFabric
from repro.dist.wire import HEADER_BYTES
from repro.dist.worker import DistConfig, build_pipeline, rank_main
from repro.errors import InputFrameError
from repro.kernels.gaussian import GaussianKernel
from repro.util.clock import Clock
from repro.util.lru import WeightedLRU
from tests.test_dist_rank_loop import _run_ranks
from tests.test_dist_transport import _tcp_mesh

N, K = 16, 4
SHAPE = dict(n=N, k=K, sigma=2.0, policy="flat:2")
BLOCK_BYTES = 8 * K**3
#: a scatter frame's own header, and a spectrum frame's
SCATTER_HEADER, SPECTRUM_HEADER = 16, 32
DESCRIPTOR_KEY, DIGEST_KEY = 17, 33


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


def _input_framing(ranks: int, blocks: int, key_bytes: int, answered: bool) -> int:
    """Everything under ``bcast`` that is not a block or a shipped array:
    per peer one scatter frame and one announcement, an 8-byte index per
    block, and (digest keys) one have / need answer per peer."""
    per_peer = 2 * HEADER_BYTES + SCATTER_HEADER + key_bytes
    if answered:
        per_peer += HEADER_BYTES + 1
    return (ranks - 1) * per_peer + 8 * blocks


def _shipped(spectrum: np.ndarray) -> int:
    return HEADER_BYTES + SPECTRUM_HEADER + spectrum.nbytes


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
    expected = BLOCK_BYTES * blocks
    if spectrum is None:
        expected += _input_framing(ranks, blocks, DESCRIPTOR_KEY, answered=False)
    elif ranks > 1:
        # a cold job: every peer misses the kernel exactly once
        expected += _input_framing(ranks, blocks, DIGEST_KEY, answered=True)
        expected += (ranks - 1) * _shipped(spectrum)
    assert _bcast_bytes(results) == expected

    serial = build_pipeline(config, spectrum).run_serial(field)
    assert np.array_equal(assemble_blocks(config, results), serial.approx)


def _active(config, field):
    """The indices of ``field``'s active sub-domains, as the driver finds them."""
    decomp = DomainDecomposition(n=config.n, k=config.k)
    return [sub.index for sub in decomp.active_subdomains(field)]


# -- kernels ship on a miss only ------------------------------------------
@pytest.mark.parametrize("ranks", [2, 3])
def test_kernel_ships_once_per_miss_and_again_after_eviction(ranks):
    config = DistConfig(num_ranks=ranks, **SHAPE)
    field = _field("half-cube", 7, ranks)
    a, b, c = _spectrum(1.5), _spectrum(2.0), _spectrum(2.5)
    # room for two kernels: a third evicts the least recently used
    tables = [WeightedLRU(2 * a.nbytes) for _ in range(ranks)]
    warm = predicted_input_bytes(config, _active(config, field)) + _input_framing(
        ranks, predicted_input_bytes(config, _active(config, field)) // BLOCK_BYTES,
        DIGEST_KEY, answered=True,
    )
    ship = (ranks - 1) * _shipped(a)

    def job(spectrum):
        results = _run_ranks(
            _transports("local", ranks), config, field, spectrum, tables=tables
        )
        serial = build_pipeline(config, spectrum).run_serial(field)
        assert np.array_equal(assemble_blocks(config, results), serial.approx)
        return _bcast_bytes(results)

    assert job(a) == warm + ship  # cold: ships once
    assert job(b) == warm + ship  # a second kernel: once
    assert job(a) == warm  # the first again: nothing
    assert job(c) == warm + ship  # a third: ships, evicts b (LRU)
    assert job(a) == warm  # a survived the eviction
    assert job(b) == warm + ship  # b did not: exactly one re-ship
    assert job(b) == warm


def test_default_kernel_never_ships_and_is_evaluated_once_per_table():
    config = DistConfig(num_ranks=2, **SHAPE)
    field = _field("half-cube", 3, 2)
    tables = [WeightedLRU(1 << 20) for _ in range(2)]
    blocks = predicted_input_bytes(config, _active(config, field)) // BLOCK_BYTES
    for _ in range(2):
        results = _run_ranks(
            _transports("local", 2), config, field, None, tables=tables
        )
        assert _bcast_bytes(results) == BLOCK_BYTES * blocks + _input_framing(
            2, blocks, DESCRIPTOR_KEY, answered=False
        )
    for table in tables:
        assert (len(table), table.misses, table.hits) == (1, 1, 1)


@pytest.mark.parametrize("overlap", [False, True], ids=["barrier", "overlap"])
def test_resumed_job_scatters_only_blocks_the_checkpoint_lacks(overlap):
    ranks = 3
    config = DistConfig(num_ranks=ranks, overlap=overlap, **SHAPE)
    field = _field("dense", 11, ranks)
    spectrum = _spectrum(2.0)
    serial = build_pipeline(config, spectrum).run_serial(field)
    held = serial.per_domain[::2]
    checkpoint = checkpoint_to_bytes(held)
    restored = frozenset(sub.index for sub, _f in held)
    tables = [WeightedLRU(1 << 20) for _ in range(ranks)]
    _run_ranks(_transports("local", ranks), config, field, spectrum, tables=tables)

    results = _run_ranks(
        _transports("local", ranks), config, field, spectrum, checkpoint, tables
    )
    blocks = sum(r.num_chunks for rank, r in results.items() if rank)
    assert blocks == sum(
        1 for sub, _f in serial.per_domain
        if sub.index not in restored and sub.index % ranks
    )
    assert predicted_input_bytes(config, _active(config, field), restored) == BLOCK_BYTES * blocks
    assert _bcast_bytes(results) == (
        BLOCK_BYTES * blocks
        + _input_framing(ranks, blocks, DIGEST_KEY, answered=True)
        + (ranks - 1) * (HEADER_BYTES + len(checkpoint))
    )
    assert np.array_equal(assemble_blocks(config, results), serial.approx)


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
        root.broadcast(struct.pack("<cqd", b"G", N, 2.0), tag=TAG_SPECTRUM_KEY)
        root.send_payload(1, _scatter_frame([2]), TAG_FIELD)
        with pytest.raises(InputFrameError, match="another rank's"):
            rank_main(victim, config)


def _spectrum_frame(code=b"<f8", shape=(N, N, N), nbytes=8 * N**3) -> bytes:
    return struct.pack("<4s4x3q", code, *shape) + bytes(nbytes)


class TestHostileSpectrum:
    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<c8", "<c16"])
    def test_round_trip(self, dtype):
        spectrum = np.random.default_rng(1).standard_normal((N, N, N)).astype(dtype)
        frame = encode_spectrum(spectrum).tobytes()
        decoded = decode_spectrum(frame, N)
        assert decoded.dtype == spectrum.dtype
        assert np.array_equal(decoded, spectrum)

    @pytest.mark.parametrize(
        "frame, offset, match",
        [
            (b"\x00" * 31, 31, "truncated spectrum header"),
            (_spectrum_frame(code=b"|O8"), 0, "dtype"),
            (_spectrum_frame(code=b"<i8"), 0, "dtype"),
            # a shape that would imply an allocation beyond the grid
            (_spectrum_frame(shape=(1 << 20,) * 3, nbytes=0), 8, "shape"),
            (_spectrum_frame(shape=(N, N, 1)), 8, "shape"),
            (_spectrum_frame(nbytes=8 * N**3 - 8), 32 + 8 * N**3 - 8, "needs"),
            (_spectrum_frame(nbytes=8 * N**3 + 1), 32 + 8 * N**3, "needs"),
        ],
    )
    def test_rejected_with_offset(self, frame, offset, match):
        with pytest.raises(InputFrameError, match=match) as err:
            decode_spectrum(frame, N)
        assert err.value.offset == offset

    def test_digest_covers_dtype_shape_and_bytes(self):
        base = _spectrum(2.0)
        digests = {
            spectrum_digest(encode_spectrum(variant))
            for variant in (base, base.astype(np.float32), base + 1e-9,
                            np.ascontiguousarray(base.transpose(2, 1, 0)) * 1.0)
        }
        assert len(digests) >= 3  # transposing a symmetric kernel may tie
        assert spectrum_digest(encode_spectrum(base)) == spectrum_digest(
            encode_spectrum(base).tobytes()
        )

    def test_spectrum_not_matching_its_digest_is_rejected_and_never_cached(self):
        config = DistConfig(num_ranks=2, **SHAPE)
        fabric = LocalFabric(2)
        root = Communicator(fabric.endpoint(0), recv_timeout_s=5.0)
        victim = Communicator(fabric.endpoint(1), recv_timeout_s=5.0)
        announced = spectrum_digest(encode_spectrum(_spectrum(2.0)))
        root.broadcast(announced, tag=TAG_SPECTRUM_KEY)
        root.send_payload(1, encode_spectrum(_spectrum(2.5)), TAG_SPECTRUM)
        table = WeightedLRU(1 << 20)
        with pytest.raises(InputFrameError, match="does not hash"):
            share_spectrum(victim, config, None, table)
        assert len(table) == 0 and table.get(announced) is None

    @pytest.mark.parametrize("key", [b"", b"H" + b"\x00" * 8, b"X" * 33])
    def test_unknown_announcement_is_rejected(self, key):
        config = DistConfig(num_ranks=2, **SHAPE)
        fabric = LocalFabric(2)
        root = Communicator(fabric.endpoint(0), recv_timeout_s=5.0)
        victim = Communicator(fabric.endpoint(1), recv_timeout_s=5.0)
        root.send_payload(1, key, TAG_SPECTRUM_KEY)
        with pytest.raises(InputFrameError, match="neither"):
            share_spectrum(victim, config, None, WeightedLRU(1 << 20))


# -- a non-root rank never holds an n^3 array -----------------------------
class _ReachedCompute(Exception):
    pass


def test_non_root_rank_allocates_its_blocks_not_the_field():
    """Everything a non-root rank allocates up to the moment it starts
    convolving — announcement, kernel lookup, scatter frame, pipeline —
    is traced; it must hold its own blocks and nothing ``n^3``-sized.

    Rank 0 is scripted and its frames are allocated before tracing
    starts, and the kernel is already in the rank's table.  The pipeline's
    §3.1 check on that kernel walks it a few x-planes at a time, so it
    allocates nothing ``n^3``-sized either.
    """
    n, k = 64, 8
    config = DistConfig(
        n=n, k=k, sigma=2.0, policy="flat:4", num_ranks=2,
        fail_rank=1, fail_stage="before_checkpoint",
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
    wire = encode_spectrum(spectrum)
    table = WeightedLRU(1 << 30)
    table.put(spectrum_digest(wire), spectrum, spectrum.nbytes)
    root.send_payload(1, spectrum_digest(wire), TAG_SPECTRUM_KEY)
    root.send_payload(1, encode_blocks(k, decomp.active_blocks(field, own)), TAG_FIELD)
    victim = Communicator(fabric.endpoint(1), recv_timeout_s=20.0)
    peaks = []

    def reached_compute():
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise _ReachedCompute

    tracemalloc.start()
    try:
        with pytest.raises(_ReachedCompute):
            rank_main(victim, config, abort=reached_compute, spectra=table)
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
