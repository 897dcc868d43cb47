"""What one rank executes: the SPMD body of the low-comm pipeline.

:func:`rank_main` is the same for every rank, both transports, both
exchange modes and both fresh and resumed jobs:

1. input distribution (:mod:`repro.dist.inputs`): the ranks agree on the
   kernel spectrum — by descriptor or content digest, the array itself
   travels only to a rank whose spectrum table misses it — rank 0
   broadcasts the merged checkpoint of the failed attempt when the job
   resumes one, and *scatters* the field: each rank receives the ``k^3``
   blocks of its own active sub-domains that the checkpoint does not
   already hold, never the ``n^3`` field;
2. the rank convolves those blocks locally with the warm pruned-plan
   path (zero communication — the paper's claim);
3. the compressed results are packed into a self-describing
   :mod:`repro.core.checkpoint` blob and posted to the driver whole (this
   is the fault-tolerance state), and each peer is sent, in the single
   sparse exchange of Eq 6, a values-only frame
   (:func:`exchange_frame`): per field, the sub-domain index, a value
   count and the sample values of only the octree cells that touch *its*
   boxes (:func:`~repro.core.accumulate.cells_touching_rank`) — no
   octree metadata, because the receiver derives the pattern and that
   subset from the configuration it holds.  One frame per peer in ONE
   ``sparse_allgather`` after the loop (barrier mode), or one per peer
   per chunk pushed onto a streamed exchange from inside the loop
   (``overlap`` mode);
4. the rank merges what arrived (:func:`merge_exchanged`) — rejecting,
   with :class:`~repro.errors.ExchangeFrameError`, a sub-domain its
   sender does not own or that arrives twice and any entry whose value
   count or length disagrees with the derived subset — and reconstructs
   the accumulated result restricted to its *own* sub-domain boxes.

Accumulation order is deterministic (compressed fields sorted by
sub-domain index, exactly the order ``run_serial`` uses), so the blocks a
rank returns — and the grid the driver assembles from them — are bitwise
identical to :meth:`~repro.core.pipeline.LowCommConvolution3D.run_serial`.

Fault injection lives here too: :class:`DistConfig` can name a rank and a
pipeline stage at which that rank calls its ``abort`` hook (process exit
for TCP, fabric kill for the loopback transport), which is how the
recovery path is tested end to end.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.accumulate import accumulate_boxes, cells_touching_rank
from repro.core.checkpoint import (
    checkpoint_from_bytes,
    checkpoint_segments,
    join_checkpoint_segments,
)
from repro.core.decomposition import DomainDecomposition, SubDomain
from repro.core.pipeline import LowCommConvolution3D
from repro.core.policy import parse_policy
from repro.dist.collectives import (
    TAG_EXCHANGE,
    TAG_POOL_CHECKPOINT,
    Communicator,
)
from repro.dist.inputs import default_spectrum, scatter_blocks, share_spectrum
from repro.dist.ledger import CATEGORY_EXCHANGE
from repro.dist.wire import FramePayload, Segments
from repro.errors import ConfigurationError, ExchangeFrameError
from repro.octree.compress import CompressedField
from repro.octree.sampling import SamplingPattern
from repro.octree.serialize import decode_values, encode_values
from repro.util import copytrack
from repro.util.lru import WeightedLRU

#: Stages at which an injected failure can trigger (see ``DistConfig``).
#: The first three fire in both modes; the last three only in overlap
#: mode, at the streaming pipeline's interleaving points.
FAIL_STAGES = (
    "before_checkpoint",
    "before_exchange",
    "mid_exchange",
    "post_chunk_checkpoint",
    "stream_send",
    "mid_window",
)
#: The stages that exist in both modes (barrier-style phase names).
BARRIER_FAIL_STAGES = ("before_checkpoint", "before_exchange", "mid_exchange")
#: The overlap-only members of :data:`FAIL_STAGES`.
STREAM_FAIL_STAGES = ("post_chunk_checkpoint", "stream_send", "mid_window")


@dataclass(frozen=True)
class DistConfig:
    """Everything a rank needs to run its share of the pipeline.

    Frozen and built from plain values only, so it crosses process
    boundaries trivially.  ``fail_rank`` / ``fail_stage`` inject a crash
    of one rank at a chosen pipeline stage (testing only).
    """

    n: int = 32
    k: int = 8
    sigma: float = 2.0
    policy: str = "banded"
    interpolation: str = "linear"
    precision: str = "float64"
    batch: Optional[int] = None
    real_kernel: Optional[bool] = None
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
    #: touch that peer's boxes, plus a 16-byte entry header per field and
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
    #: process-wide plan-cache hits/misses attributable to this job
    #: (:func:`~repro.dist.jobs.execute_job`; 0 for a thread rank, whose
    #: pipeline owns a private cache) — a warm rank misses nothing
    plan_hits: int = 0
    plan_misses: int = 0


def composite_field(n: int, seed: int = 0) -> np.ndarray:
    """The CLI's composite-like input: noise in the central half-cube."""
    rng = np.random.default_rng(seed)
    field = np.zeros((n, n, n))
    q = n // 4
    field[q : n - q, q : n - q, q : n - q] = rng.standard_normal((n - 2 * q,) * 3)
    return field


def build_pipeline(
    config: DistConfig,
    spectrum: Optional[np.ndarray] = None,
    plans=None,
) -> LowCommConvolution3D:
    """The pipeline object every rank (and the driver) constructs.

    ``spectrum=None`` is the job's default kernel,
    :func:`~repro.dist.inputs.default_spectrum` of ``config``.
    ``plans`` optionally shares a :class:`~repro.fft.pruned_plan
    .PlanCache` across pipelines — the standing rank pool passes its
    process-wide cache so FFT plans survive from job to job.
    """
    return LowCommConvolution3D(
        config.n,
        config.k,
        default_spectrum(config) if spectrum is None else spectrum,
        policy=parse_policy(config.policy),
        batch=config.batch,
        interpolation=config.interpolation,
        real_kernel=config.real_kernel,
        plans=plans,
    )


def rank_main(
    comm: Communicator,
    config: DistConfig,
    field: Optional[np.ndarray] = None,
    spectrum: Optional[np.ndarray] = None,
    post: Optional[Callable[[str, int, bytes], None]] = None,
    abort: Optional[Callable[[], None]] = None,
    plans=None,
    checkpoint: Optional[bytes] = None,
    resumed: bool = False,
    spectra: Optional[WeightedLRU] = None,
) -> RankResult:
    """Run one rank of the SPMD job; returns the rank's result.

    Parameters
    ----------
    comm:
        The rank's communicator; its clock times ``compute_s`` and
        ``exchange_s``.
    config:
        Job parameters (identical on every rank).
    field, spectrum:
        Supplied on rank 0 only.  Other ranks receive their own blocks of
        the field by scatter and the spectrum by key (see ``spectra``);
        ``spectrum=None`` on rank 0 selects the default kernel of
        ``config``, which every rank evaluates for itself.
    post:
        Driver-side mailbox: ``post(kind, rank, payload)``.  The rank
        posts every checkpoint blob here before it reaches a peer
        (``"checkpoint"`` once in barrier mode, ``"chunk"`` per chunk in
        overlap mode) — the state the driver recovers from if a rank
        dies.
    abort:
        Crash hook for fault injection (never called unless this rank is
        ``config.fail_rank``).
    plans:
        Optional shared plan cache, forwarded to :func:`build_pipeline`
        (the standing pool's warm-plan path).
    checkpoint, resumed:
        ``resumed`` (set on every rank) marks a job that continues a
        failed attempt; ``checkpoint`` (rank 0 only) is that attempt's
        merged checkpoint blob.  Each rank then receives, computes and
        exchanges only its own sub-domains *absent* from it — a survivor
        usually nothing, a replacement exactly the dead rank's unfinished
        share — and the merge holds the same per-sub-domain fields as a
        clean run, so the result is still bitwise ``run_serial``'s.
    spectra:
        This rank's standing spectrum table, kept by the caller from job
        to job exactly as ``plans`` is; a kernel found in it does not
        travel.  ``None`` (the cold runtime) is an empty table, so the
        spectrum ships once.
    """
    rank, size = comm.rank, comm.size
    if rank == 0 and (field is None or (resumed and checkpoint is None)):
        raise ConfigurationError(
            "rank 0 must be given the field (and the merged checkpoint of "
            "the attempt a resumed job continues)"
        )
    if spectra is None:
        spectra = WeightedLRU(max_weight=0)
    spectrum = share_spectrum(comm, config, spectrum, spectra)
    if resumed:
        checkpoint = comm.broadcast(checkpoint, root=0, tag=TAG_POOL_CHECKPOINT)
    restored: Dict[int, CompressedField] = (
        checkpoint_from_bytes(checkpoint) if resumed else {}
    )
    pipeline = build_pipeline(config, spectrum, plans=plans)
    if rank == 0:
        field = np.asarray(field, dtype=np.float64)
    shares = pipeline.decomposition.assign_round_robin(size)
    todo = scatter_blocks(comm, pipeline.decomposition, shares, field, skip=restored)
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

    #: what this rank merges: the restored fields, then its own fields as
    #: they are computed, then its peers' as they arrive
    merged: Dict[int, CompressedField] = dict(restored)
    sent_bytes = 0

    def payloads(kind: str, pairs) -> List[FramePayload]:
        """Post ``pairs`` whole and merge them; return one exchange frame
        per peer (the own slot is empty: nothing of it travels)."""
        nonlocal sent_bytes
        # one encode per field (float32: one counted cast) feeds the
        # posted blob, this rank's own merge slot and every peer's frame
        values = [encode_values(f, config.precision) for _s, f in pairs]
        blob = join_checkpoint_segments(
            checkpoint_segments(pairs, config.precision, values=values)
        )
        if post is not None:
            post(kind, rank, blob)
        # the own slot round-trips through the wire precision like a
        # peer's, so float32 merges the same values on every rank
        for (sub, f), encoded in zip(pairs, values):
            merged[sub.index] = CompressedField(
                f.pattern, decode_values(encoded, config.precision)
            )
        out: List[FramePayload] = [b""] * size
        for dst in range(size):
            if dst != rank:
                out[dst] = exchange_frame(pairs, values, config, dst)
                sent_bytes += len(out[dst])
        return out

    fail("before_checkpoint")
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
        chunk = payloads("chunk", [(sub, compressed)])
        if len(own) == 1:
            # driver holds this chunk's checkpoint; peers never see it
            fail("post_chunk_checkpoint")
        stream.push(chunk)
        if len(own) == 1:
            # first chunk is (at least partially) on the wire
            fail("stream_send")
        if len(own) == mid_chunk:
            # die with the send window half-way through the chunk stream
            fail("mid_window")
    compute_end = now()
    if stream is None:
        outgoing = payloads("checkpoint", own)

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
        # accumulated over this rank's own boxes, fields in sub-domain
        # index order (the run_serial order — bitwise identity)
        blocks=accumulate_boxes(merged, own_subdomains, config.interpolation),
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
#: sub-domain index, an int64 value count and that many values at the job's
#: precision.  The sender's pattern, and the cells of it that the values
#: fill, are derived on receipt.
_COUNT = struct.Struct("<q")
_ENTRY = struct.Struct("<qq")


def exchange_frame(
    pairs: Sequence[Tuple[SubDomain, CompressedField]],
    values: Sequence[np.ndarray],
    config: DistConfig,
    dst: int,
) -> Segments:
    """Rank ``dst``'s values-only exchange frame for ``pairs``.

    ``values`` holds each field's :func:`~repro.octree.serialize
    .encode_values` array at ``config.precision``; the frame aliases the
    runs of it that the cells touching ``dst``'s boxes hold
    (:func:`~repro.core.accumulate.cells_touching_rank`), so nothing is
    copied.  A field none of whose cells touch ``dst``'s boxes has no
    entry.
    """
    parts: List[object] = []
    entries = 0
    for (sub, field), encoded in zip(pairs, values):
        subset = cells_touching_rank(field.pattern, config.k, config.num_ranks, dst)
        if subset.num_cells:
            parts.append(_ENTRY.pack(sub.index, subset.sample_count))
            parts.extend(subset.value_runs(encoded))
            entries += 1
    return Segments([_COUNT.pack(entries), *parts])


def merge_exchanged(
    merged: Dict[int, CompressedField],
    payload: FramePayload,
    config: DistConfig,
    *,
    src: int,
    rank: int,
) -> None:
    """Add the fields of rank ``src``'s exchange frame to rank ``rank``'s
    ``merged``.

    Every rank owns its sub-domains round-robin, so a frame may only
    carry indices ``src`` owns, each once across the whole job (the merge
    may already hold a resumed job's restored fields).  Each entry's
    values fill the cells of the sub-domain's pattern
    (:meth:`~repro.core.policy.SamplingPolicy.pattern_for`) that touch this
    rank's boxes (:func:`~repro.core.accumulate.cells_touching_rank`), so
    the declared count must be that subset's sample count and the frame
    must hold that many values at ``config.precision``; both are checked
    before anything is read or allocated.  Anything else — a buggy or
    hostile peer — raises :class:`~repro.errors.ExchangeFrameError` with
    the offending entry's offset instead of silently overwriting a
    sub-domain or misreading the frame.
    """
    size = config.num_ranks
    decomposition = DomainDecomposition(n=config.n, k=config.k)
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
    entries: Dict[int, Tuple[SamplingPattern, int, int]] = {}

    def reject(problem: str) -> None:
        raise ExchangeFrameError(
            f"rank {rank}: rank {src} {problem}, at entry {len(entries)}",
            offset=offset,
        )

    # the whole frame is checked before any value is read
    while offset < view.nbytes and len(entries) < count:
        if view.nbytes - offset < _ENTRY.size:
            reject(f"sent a truncated entry header ({view.nbytes - offset} bytes)")
        index, declared = _ENTRY.unpack_from(view, offset)
        if not 0 <= index < decomposition.num_domains:
            reject(
                f"sent sub-domain {index}, outside [0, {decomposition.num_domains})"
            )
        if index % size != src:
            reject(f"sent sub-domain {index}, owned by rank {index % size}")
        if index in merged or index in entries:
            reject(f"sent sub-domain {index}, which already arrived")
        pattern = policy.pattern_for(
            config.n, config.k, decomposition.subdomain(index).corner
        )
        subset = cells_touching_rank(pattern, config.k, size, rank)
        if not subset.num_cells:
            reject(f"sent sub-domain {index}, none of whose cells touch rank {rank}")
        if declared != subset.sample_count:
            reject(
                f"declared {declared} values for sub-domain {index}, whose "
                f"cells touching rank {rank} hold {subset.sample_count}"
            )
        start = offset + _ENTRY.size
        stop = start + declared * itemsize
        if stop > view.nbytes:
            reject(
                f"sent {view.nbytes - start} value bytes for sub-domain "
                f"{index}, which needs {declared} {config.precision} values"
            )
        entries[index] = (subset.pattern, start, stop)
        offset = stop
    if len(entries) != count or offset != view.nbytes:
        reject(
            f"sent a frame declaring {count} entries that ends after "
            f"{len(entries)} with {view.nbytes - offset} bytes left"
        )
    for index, (pattern, start, stop) in entries.items():
        merged[index] = CompressedField(
            pattern, decode_values(view[start:stop], config.precision)
        )
