"""What one rank executes: the SPMD body of the low-comm pipeline.

:func:`rank_main` is the same for every rank, both transports and both
exchange modes:

1. input distribution (:mod:`repro.dist.inputs`): the rank takes the
   kernel the driver named from its spectrum table, or from the job
   message, which carries the array only to a rank whose table lacks it
   (ranks never agree on a kernel in-mesh) — and rank 0 *scatters* the
   active blocks it was handed: the driver cut the field's active ``k^3``
   blocks once, rank 0 keeps its own, and each peer receives the blocks
   of its own active sub-domains — no rank is handed the ``n^3`` field;
2. the rank convolves those blocks locally (zero communication — the
   paper's claim) with the process's FFT plans
   (:func:`~repro.fft.pruned_plan.plan_for`), which outlive every job, on
   a pipeline a standing rank keeps from job to job
   (:func:`warm_pipeline`);
3. each peer is sent, in the single sparse exchange of Eq 6, a
   values-only frame (:func:`exchange_frame`).  Its entries
   (:func:`exchange_entries`) are the largest aligned subtrees of the
   rank's share that the frame carries whole — at ``P = 2**p`` in barrier
   mode the whole share, else one field each — and an entry carries the
   covered sub-domain indices, a value count and the values of the
   distinct cells of those fields that touch the peer's boxes, each
   summed over the fields holding it
   (:func:`~repro.core.accumulate.union_touching_rank`) — no octree
   metadata, because the receiver derives the patterns and that union
   from the configuration it holds.  One frame per peer in ONE
   ``sparse_allgather`` after the loop (barrier mode), or one per peer
   per chunk pushed onto a streamed exchange from inside the loop
   (``overlap`` mode);
4. the rank merges what arrived (:func:`merge_exchanged`) — rejecting,
   with :class:`~repro.errors.ExchangeFrameError`, sub-domains its sender
   does not own or that do not form one aligned subtree of its share,
   one that arrives twice or sits inside a sum already merged, and any
   entry whose value count or length disagrees with the derived union —
   and reconstructs the accumulated result restricted to its *own*
   sub-domain boxes, with one reconstruction plan over the whole box set
   (:func:`~repro.core.accumulate.accumulate_boxes`).

Accumulation order is deterministic: the plan sums every cell over its
holders in one tree order on sub-domain indices, the order ``run_serial``
uses, and a sender's sum of its share is a subtree of that tree, so the
blocks a rank returns — and the grid the driver assembles from them — are
bitwise identical to
:meth:`~repro.core.pipeline.LowCommConvolution3D.run_serial`.

Nothing a rank computes outlives its job: a job that loses a rank is run
again (:mod:`repro.dist.launcher`, :mod:`repro.pool.pool`).  Fault
injection lives here too: :class:`DistConfig` can name a rank and a
pipeline stage at which that rank calls its ``abort`` hook (process exit
for TCP, fabric kill for the loopback transport), which is how the
recovery path is tested end to end.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dataclass_field
from typing import AbstractSet, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accumulate import (
    CellUnion,
    accumulate_boxes,
    cells_touching_rank,
    union_touching_rank,
)
from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import parse_policy
from repro.dist.collectives import TAG_EXCHANGE, Communicator
from repro.dist.inputs import Chunks, default_spectrum, job_spectrum, scatter_blocks
from repro.dist.ledger import CATEGORY_EXCHANGE
from repro.dist.wire import FramePayload, Segments
from repro.errors import ConfigurationError, ExchangeFrameError
from repro.octree.compress import CompressedField
from repro.octree.sampling import SamplingPattern
from repro.octree.serialize import decode_values, encode_values
from repro.octree.treesum import LEAF_BITS, Operand, in_subtree, subtree
from repro.util import copytrack
from repro.util.lru import WeightedLRU
from repro.util.validation import check_positive_int

#: The stages that exist in both modes (barrier-style phase names).
BARRIER_FAIL_STAGES = ("before_compute", "before_exchange", "mid_exchange")
#: The overlap-only stages, at the streaming pipeline's interleaving
#: points.
STREAM_FAIL_STAGES = ("stream_send", "mid_window")
#: Stages at which an injected failure can trigger (see ``DistConfig``).
FAIL_STAGES = BARRIER_FAIL_STAGES + STREAM_FAIL_STAGES


@dataclass(frozen=True)
class DistConfig:
    """Everything a rank needs to run its share of the pipeline.

    Frozen and built from plain values only, so it crosses process
    boundaries trivially.  ``fail_rank`` / ``fail_stage`` inject a crash
    of one rank at a chosen pipeline stage (testing only).  ``batch`` is
    the z-pencil batch ``B``; ``None`` lets every rank size it from ``(n,
    components)`` by :func:`~repro.fft.pruned.default_pencil_batch`, the
    same ``B`` ``run_serial`` uses, so results stay bitwise.  A float32
    job's exchange sends every field alone, never a sum of several: a sum
    rounded to float32 would be a second rounding the serial oracle never
    makes.
    """

    n: int = 32
    k: int = 8
    sigma: float = 2.0
    policy: str = "banded"
    precision: str = "float64"
    batch: Optional[int] = None
    num_ranks: int = 2
    transport: str = "local"
    seed: int = 0
    recv_timeout_s: float = 30.0
    heartbeat_s: Optional[float] = None
    #: stream chunks into the exchange as they complete (overlap mode)
    overlap: bool = False
    #: bounded in-flight chunk window for the streamed exchange
    window: int = 2
    fail_rank: Optional[int] = None
    fail_stage: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_ranks < 1:
            raise ConfigurationError(f"need >= 1 rank, got {self.num_ranks}")
        if self.transport not in ("local", "tcp"):
            raise ConfigurationError(
                f"transport must be 'local' or 'tcp', got {self.transport!r}"
            )
        if self.precision not in ("float64", "float32"):
            raise ConfigurationError(
                f"precision must be 'float64' or 'float32', got {self.precision!r}"
            )
        if self.window < 1:
            raise ConfigurationError(f"need window >= 1, got {self.window}")
        if self.batch is not None:
            check_positive_int(self.batch, "batch")
        if self.fail_stage is not None and self.fail_stage not in FAIL_STAGES:
            raise ConfigurationError(
                f"fail_stage must be one of {FAIL_STAGES}, got {self.fail_stage!r}"
            )
        if (
            self.fail_stage in STREAM_FAIL_STAGES
            and not self.overlap
        ):
            raise ConfigurationError(
                f"fail_stage {self.fail_stage!r} only exists in overlap "
                "mode (set overlap=True)"
            )
        if self.fail_rank is not None and not 0 <= self.fail_rank < self.num_ranks:
            raise ConfigurationError(
                f"fail_rank {self.fail_rank} out of range [0, {self.num_ranks})"
            )


@dataclass
class RankResult:
    """One rank's contribution, returned to the driver."""

    rank: int
    #: accumulated dense ``k^3`` blocks for this rank's sub-domains —
    #: the rank-to-driver payload only: ``assemble_blocks`` empties it as
    #: it places the blocks into ``approx``, so a stored report's
    #: ``rank_results`` carry the numbers below and no second copy of
    #: the grid
    blocks: Dict[int, np.ndarray]
    #: sub-domains this rank actually convolved (zero chunks skipped)
    num_chunks: int
    total_samples: int
    compressed_bytes: int
    #: exchange frame payload bytes this rank shipped, summed over its
    #: peers — each peer's frame holds the values of only the cells that
    #: touch that peer's boxes, summed per entry over the entry's fields,
    #: plus an entry header of 16 bytes and 8 per covered sub-domain and
    #: an 8-byte entry count, so they differ (one frame per peer in
    #: barrier mode, the per-chunk frames summed in overlap mode)
    exchange_payload_bytes: int
    compute_s: float
    #: time blocked in the exchange (the full allgather in barrier mode,
    #: only the final drain in overlap mode)
    exchange_s: float
    #: this rank's :class:`~repro.dist.ledger.WireLedger` snapshot (a
    #: rank process reports the job's difference of two: mesh formation
    #: and earlier jobs are not in it)
    wire: dict = dataclass_field(default_factory=dict)
    #: True when the streamed (overlap) exchange produced this result
    overlap: bool = False
    #: exchange DATA frames sent to each peer (chunks + end marker)
    exchange_frames_per_peer: int = 1
    #: send time the stream hid behind local compute (0 in barrier mode)
    exchange_hidden_s: float = 0.0
    #: total wire send time of the stream, hidden + visible (0 in
    #: barrier mode, where sends are folded into ``exchange_s``)
    exchange_send_s: float = 0.0
    #: this rank's :class:`~repro.util.copytrack.CopyLedger` snapshot —
    #: exact per-rank under the TCP transport (one process per rank,
    #: ledger reset at job start); under the loopback transport the
    #: ledger is process-global, so rank threads see shared totals
    copies: dict = dataclass_field(default_factory=dict)
    #: hits/misses of the process-wide plan table over this job, read by
    #: :func:`~repro.dist.jobs.execute_job` in a rank process (0 for a
    #: thread rank, which runs :func:`rank_main` directly) — a warm rank
    #: misses nothing
    plan_hits: int = 0
    plan_misses: int = 0
    #: the content keys in the rank process's spectrum table after the
    #: job (() for a thread rank): what the driver ships kernels by
    kernel_keys: Tuple[bytes, ...] = ()


def composite_field(n: int, seed: int = 0) -> np.ndarray:
    """The CLI's composite-like input: noise in the central half-cube."""
    rng = np.random.default_rng(seed)
    field = np.zeros((n, n, n))
    q = n // 4
    field[q : n - q, q : n - q, q : n - q] = rng.standard_normal((n - 2 * q,) * 3)
    return field


def build_pipeline(
    config: DistConfig, spectrum: Optional[np.ndarray] = None
) -> LowCommConvolution3D:
    """The pipeline object every rank (and the driver) constructs.

    ``spectrum=None`` is the job's default kernel,
    :func:`~repro.dist.inputs.default_spectrum` of ``config``.
    """
    return LowCommConvolution3D(
        config.n,
        config.k,
        default_spectrum(config) if spectrum is None else spectrum,
        policy=parse_policy(config.policy),
        batch=config.batch,
    )


def warm_pipeline(
    config: DistConfig,
    key: Optional[bytes],
    spectrum: np.ndarray,
    pipelines: Optional[WeightedLRU] = None,
) -> LowCommConvolution3D:
    """The job's pipeline from a standing rank's ``pipelines`` table,
    keyed on the kernel's key (:mod:`repro.dist.inputs`) and the shape
    it runs: a miss builds it — and runs
    the §3.1 check on its kernel — once, every later job of the shape
    reuses it.  No table, or no key (a cold rank), builds one for this
    job."""
    if pipelines is None or key is None:
        return build_pipeline(config, spectrum)
    shape = (key, config.n, config.k, config.policy, config.batch)
    pipeline = pipelines.get(shape)
    if pipeline is None:
        pipeline = build_pipeline(config, spectrum)
        # weighed by the kernel it keeps alive: the spectrum table's
        # array while that entry lives, its own once it is evicted
        pipeline = pipelines.put(shape, pipeline, spectrum.nbytes)
    return pipeline


def rank_main(
    comm: Communicator,
    config: DistConfig,
    blocks: Optional[Chunks] = None,
    kernel_key: Optional[bytes] = None,
    spectrum: Optional[np.ndarray] = None,
    abort: Optional[Callable[[], None]] = None,
    spectra: Optional[WeightedLRU] = None,
    pipelines: Optional[WeightedLRU] = None,
) -> RankResult:
    """Run one rank of the SPMD job; returns the rank's result.

    Parameters
    ----------
    comm:
        The rank's communicator; its clock times ``compute_s`` and
        ``exchange_s``.
    config:
        Job parameters (identical on every rank).
    blocks:
        Supplied on rank 0 only: the job's active ``(sub-domain, k^3
        block)`` pairs, which the driver cut once
        (:meth:`~repro.core.decomposition.DomainDecomposition
        .active_blocks`); rank 0 keeps its own and scatters every peer
        its share, so no rank is handed the ``n^3`` field.
    kernel_key, spectrum:
        The key the driver names the job's kernel by, and the array when
        the driver sent it (:func:`~repro.dist.inputs.job_spectrum`): a
        key found in ``spectra`` needs no array, a default kernel's
        descriptor never has one, and an attached array is checked
        against the key before it is cached.  ``kernel_key=None`` (a cold
        rank) keys nothing: the rank convolves with ``spectrum``, or with
        the default kernel of ``config`` when that is ``None`` too.
    abort:
        Crash hook for fault injection (never called unless this rank is
        ``config.fail_rank``).
    spectra, pipelines:
        This rank's standing spectrum and pipeline tables, kept by the
        caller from job to job; a pipeline found in ``pipelines``
        (:func:`warm_pipeline`) is not rebuilt.  ``None`` (the cold
        runtime) keeps nothing: the pipeline is built for the job.
    """
    rank, size = comm.rank, comm.size
    if rank == 0 and blocks is None:
        raise ConfigurationError("rank 0 must be given the active blocks")
    spectrum = job_spectrum(config, kernel_key, spectrum, spectra)
    pipeline = warm_pipeline(config, kernel_key, spectrum, pipelines)
    shares = pipeline.decomposition.assign_round_robin(size)
    todo = scatter_blocks(comm, pipeline.decomposition, shares, blocks)
    own_subdomains = shares[rank]
    now = comm.clock.now

    def fail(stage: str) -> None:
        if config.fail_rank == rank and config.fail_stage == stage:
            if abort is None:
                raise ConfigurationError(
                    "failure injection requested but the runtime supplied "
                    "no abort hook"
                )
            abort()

    #: what this rank sums: its own fields as they are computed, then its
    #: peers' fields and partial sums as they arrive
    merged: List[Operand] = []
    #: the active sub-domains of this rank's share (an exchange entry sums
    #: only subtrees of them that one frame carries whole)
    share = {sub.index for sub, _block in todo}
    sent_bytes = 0

    def payloads(pairs) -> List[FramePayload]:
        """Merge ``pairs``; return one exchange frame per peer (the own
        slot is empty: nothing of it travels)."""
        nonlocal sent_bytes
        # one encode per field (float32: one counted cast) feeds this
        # rank's own merge slot and every peer's frame
        values = [encode_values(f, config.precision) for _s, f in pairs]
        # the own slot round-trips through the wire precision like a
        # peer's, so float32 merges the same values on every rank
        for (sub, f), encoded in zip(pairs, values):
            merged.append(
                Operand.leaf(
                    sub.index,
                    CompressedField(f.pattern, decode_values(encoded, config.precision)),
                )
            )
        others = share - {sub.index for sub, _f in pairs}
        out: List[FramePayload] = [b""] * size
        for dst in range(size):
            if dst != rank:
                out[dst] = exchange_frame(pairs, values, config, dst, others)
                sent_bytes += len(out[dst])
        return out

    fail("before_compute")
    stream = (
        comm.sparse_allgather_stream(tag=TAG_EXCHANGE, window=config.window)
        if config.overlap
        else None
    )
    mid_chunk = max(1, len(todo) // 2)
    own: List[Tuple[object, CompressedField]] = []
    t0 = now()
    for sub, compressed in pipeline.convolve_chunks(todo):
        own.append((sub, compressed))
        if stream is None:
            continue
        # overlap mode: this chunk streams while the next one computes
        stream.push(payloads([(sub, compressed)]))
        if len(own) == 1:
            # first chunk is (at least partially) on the wire
            fail("stream_send")
        if len(own) == mid_chunk:
            # die with the send window half-way through the chunk stream
            fail("mid_window")
    compute_end = now()
    if stream is None:
        outgoing = payloads(own)

    fail("before_exchange")
    if stream is None and (config.fail_rank, config.fail_stage) == (rank, "mid_exchange"):
        # die half-way through the exchange: lower-ranked peers receive
        # the payload the real exchange sends them, higher-ranked ones
        # see an abrupt end-of-stream.
        for dst in range(rank):
            comm.send_payload(dst, outgoing[dst], TAG_EXCHANGE, category=CATEGORY_EXCHANGE)
    fail("mid_exchange")

    # The ONE sparse exchange (barrier), or the drain that is all of it
    # that still blocks (overlap).
    t1 = now()
    if stream is None:
        received = [[payload] for payload in comm.sparse_allgather(outgoing, tag=TAG_EXCHANGE)]
    else:
        received = stream.finish()
    exchange_s = now() - t1

    for src, chunks in enumerate(received):
        if src == rank:
            continue  # merged as computed
        for payload in chunks:
            merge_exchanged(merged, payload, config, src=src, rank=rank)

    return RankResult(
        rank=rank,
        # accumulated over this rank's own boxes, in the tree order on
        # sub-domain indices that run_serial sums in (bitwise identity)
        blocks=accumulate_boxes(merged, own_subdomains),
        num_chunks=len(own),
        total_samples=sum(f.pattern.sample_count for _s, f in own),
        compressed_bytes=sum(f.nbytes for _s, f in own),
        exchange_payload_bytes=sent_bytes,
        compute_s=compute_end - t0,
        exchange_s=exchange_s,
        wire=comm.transport.ledger.snapshot(),
        overlap=config.overlap,
        # each peer got every chunk frame plus the end-of-stream marker
        exchange_frames_per_peer=1 if stream is None else stream.chunks_pushed + 1,
        exchange_hidden_s=0.0 if stream is None else stream.hidden_seconds(compute_end),
        exchange_send_s=0.0 if stream is None else stream.send_seconds(),
        copies=copytrack.ledger().snapshot(),
    )


#: An exchange frame is an int64 entry count, then per entry an int64
#: count ``L`` of the sub-domains it covers, their ``L`` int64 indices
#: (ascending), an int64 value count and that many values at the job's
#: precision.  The cells the values fill, and what each value sums, are
#: derived on receipt.
_COUNT = struct.Struct("<q")


def _entry_header(leaves: Sequence[int], values: int) -> bytes:
    return struct.pack(f"<{len(leaves) + 2}q", len(leaves), *leaves, values)


def _owned(node: Tuple[int, int], domains: int, ranks: int, src: int) -> bool:
    """Does rank ``src`` own every sub-domain of the aligned subtree
    ``node`` (see :mod:`repro.octree.treesum`) below ``domains``?"""
    residue, bits = node
    if bits >= LEAF_BITS or residue + (1 << bits) >= domains:
        return residue % ranks == src  # the one index in range
    return (1 << bits) % ranks == 0 and residue % ranks == src


def exchange_entries(
    frame: Iterable[int], others: AbstractSet[int], config: DistConfig
) -> List[Tuple[int, ...]]:
    """The entries of one rank's frame carrying the fields of ``frame``.

    An entry covers the fields of the largest aligned subtree of the
    sender's share whose active sub-domains are all in the frame —
    ``others`` are the share's active sub-domains the frame lacks (a
    stream's other chunks) — and carries
    their sum.  Barrier mode at ``P = 2**p`` ranks thus sends one entry,
    the whole share; other rank counts, streamed chunks and float32 jobs
    (a partial rounded to float32 would be a second rounding the serial
    sum never makes) send one entry per field.
    """
    leaves = sorted(frame)
    if config.precision != "float64":
        return [(leaf,) for leaf in leaves]
    domains = (config.n // config.k) ** 3
    ranks = config.num_ranks
    rest = np.fromiter(others, dtype=np.int64, count=len(others))
    entries: Dict[Tuple[int, int], List[int]] = {}
    for leaf in leaves:
        for bits in range(domains.bit_length() + 1):
            node = (leaf & ((1 << bits) - 1), bits)
            if _owned(node, domains, ranks, leaf % ranks) and not (
                rest & ((1 << bits) - 1) == node[0]
            ).any():
                break
        entries.setdefault(node, []).append(leaf)
    return [tuple(entry) for entry in entries.values()]


def exchange_frame(
    pairs: Sequence[Tuple[SubDomain, CompressedField]],
    values: Sequence[np.ndarray],
    config: DistConfig,
    dst: int,
    others: AbstractSet[int] = frozenset(),
) -> Segments:
    """Rank ``dst``'s exchange frame for ``pairs``.

    ``values`` holds each field's :func:`~repro.octree.serialize
    .encode_values` array at ``config.precision``; ``others`` the active
    sub-domains of the sender's share the frame does not carry
    (:func:`exchange_entries`).  Each entry carries the values of the
    cells of its fields that touch ``dst``'s boxes
    (:func:`~repro.core.accumulate.union_touching_rank`), summed where
    several fields hold a cell: a one-field entry aliases runs of the
    field's values, so nothing is copied.  A field none of whose cells
    touch ``dst``'s boxes is in no entry.
    """
    patterns = {sub.index: field.pattern for sub, field in pairs}
    encoded = {sub.index: array for (sub, _f), array in zip(pairs, values)}
    parts: List[object] = []
    entries = 0
    for entry in exchange_entries(patterns, others, config):
        union = entry_union(entry, patterns, config, dst)
        if union is None:
            continue
        parts.append(_entry_header(union.leaves, union.sample_count))
        parts.extend(union.values([encoded[leaf] for leaf in union.leaves]))
        entries += 1
    return Segments([_COUNT.pack(entries), *parts])


def entry_union(
    entry: Sequence[int],
    patterns: Dict[int, SamplingPattern],
    config: DistConfig,
    dst: int,
) -> Optional[CellUnion]:
    """What ``entry`` (sub-domain indices, see :func:`exchange_entries`)
    sends rank ``dst``: the union of its fields that have a cell touching
    ``dst``'s boxes, or None when none has."""
    k, ranks = config.k, config.num_ranks
    live = [
        leaf for leaf in entry if cells_touching_rank(patterns[leaf], k, ranks, dst).num_cells
    ]
    if not live:
        return None
    return union_touching_rank([patterns[leaf] for leaf in live], live, k, ranks, dst)


def merge_exchanged(
    merged: List[Operand],
    payload: FramePayload,
    config: DistConfig,
    *,
    src: int,
    rank: int,
) -> None:
    """Add the operands of rank ``src``'s exchange frame to rank
    ``rank``'s ``merged``.

    Every rank owns its sub-domains round-robin, so an entry may only
    cover sub-domains that lie in one aligned subtree ``src`` owns whole,
    ascending, each once across the whole job (the merge may already hold
    the sender's earlier streamed fields), and that subtree may hold no
    sub-domain already merged — the tree sum would skip its adds.  A
    float32 entry covers one sub-domain.  The values fill the union of the
    covered sub-domains' cells that touch this rank's boxes
    (:func:`~repro.core.accumulate.union_touching_rank`, over the patterns
    :meth:`~repro.core.policy.SamplingPolicy.pattern_for` derives), so the
    declared count must be the union's sample count and the frame must
    hold that many values at ``config.precision``.  The whole frame is
    checked before a value is read or anything is sized from it; anything
    else — a buggy or hostile peer — raises
    :class:`~repro.errors.ExchangeFrameError` with the offending entry's
    offset instead of silently misreading the frame.
    """
    size = config.num_ranks
    decomposition = DomainDecomposition(n=config.n, k=config.k)
    domains = decomposition.num_domains
    policy = parse_policy(config.policy)
    itemsize = np.dtype(config.precision).itemsize
    view = memoryview(payload).cast("B")
    if view.nbytes < _COUNT.size:
        raise ExchangeFrameError(
            f"rank {rank}: rank {src} sent a frame of {view.nbytes} bytes, "
            f"shorter than its {_COUNT.size}-byte entry count",
            offset=0,
        )
    (count,) = _COUNT.unpack_from(view, 0)
    offset = _COUNT.size
    held = {leaf for op in merged for leaf in op.leaves}
    nodes = [op.node for op in merged if len(op.leaves) > 1]
    entries: List[Tuple[CellUnion, int, int]] = []

    def reject(problem: str) -> None:
        raise ExchangeFrameError(
            f"rank {rank}: rank {src} {problem}, at entry {len(entries)}",
            offset=offset,
        )

    # the whole frame is checked before any value is read
    while offset < view.nbytes and len(entries) < count:
        left = view.nbytes - offset
        if left < _COUNT.size:
            reject(f"sent a truncated entry header ({left} bytes)")
        (covered,) = _COUNT.unpack_from(view, offset)
        if not 1 <= covered <= domains:
            reject(f"sent an entry covering {covered} sub-domains, not 1 to {domains}")
        if left < (covered + 2) * _COUNT.size:
            reject(f"sent a truncated entry header ({left} bytes)")
        leaves = struct.unpack_from(f"<{covered}q", view, offset + _COUNT.size)
        (declared,) = _COUNT.unpack_from(view, offset + (covered + 1) * _COUNT.size)
        for leaf in leaves:
            if not 0 <= leaf < domains:
                reject(f"sent sub-domain {leaf}, outside [0, {domains})")
        if any(a >= b for a, b in zip(leaves, leaves[1:])):
            reject(f"sent sub-domains {list(leaves)}, not ascending and distinct")
        if covered > 1 and config.precision != "float64":
            reject(f"sent a sum of {covered} sub-domains at {config.precision}")
        for leaf in leaves:
            if leaf % size != src:
                reject(f"sent sub-domain {leaf}, owned by rank {leaf % size}")
        node = subtree(leaves)
        if not _owned(node, domains, size, src):
            reject(
                f"sent sub-domains {list(leaves)}, which span more than one "
                f"aligned subtree of its share"
            )
        for leaf in leaves:
            if leaf in held:
                reject(f"sent sub-domain {leaf}, which already arrived")
        if covered > 1:
            inside = [leaf for leaf in held if in_subtree(node, leaf)]
            if inside:
                reject(
                    f"sent sub-domains {list(leaves)}, whose subtree holds "
                    f"sub-domain {inside[0]}, which already arrived"
                )
        for other in nodes:
            if any(in_subtree(other, leaf) for leaf in leaves):
                reject(
                    f"sent sub-domains {list(leaves)}, inside the subtree of a "
                    f"sum that already arrived"
                )
        patterns = [
            policy.pattern_for(config.n, config.k, decomposition.subdomain(leaf).corner)
            for leaf in leaves
        ]
        union = union_touching_rank(patterns, leaves, config.k, size, rank)
        if not union.num_cells:
            reject(f"sent sub-domains {list(leaves)}, none of whose cells touch rank {rank}")
        if declared != union.sample_count:
            reject(
                f"declared {declared} values for sub-domains {list(leaves)}, "
                f"whose cells touching rank {rank} hold {union.sample_count}"
            )
        start = offset + (covered + 2) * _COUNT.size
        stop = start + declared * itemsize
        if stop > view.nbytes:
            reject(
                f"sent {view.nbytes - start} value bytes for sub-domains "
                f"{list(leaves)}, which need {declared} {config.precision} values"
            )
        entries.append((union, start, stop))
        held.update(leaves)
        if covered > 1:
            nodes.append(node)
        offset = stop
    if len(entries) != count or offset != view.nbytes:
        reject(
            f"sent a frame declaring {count} entries that ends after "
            f"{len(entries)} with {view.nbytes - offset} bytes left"
        )
    for union, start, stop in entries:
        merged.append(union.operand(decode_values(view[start:stop], config.precision)))
