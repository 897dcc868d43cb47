"""Rank-level communication API: tagged point-to-point + collectives.

A :class:`Communicator` wraps one :class:`~repro.dist.transport.Transport`
endpoint with the operations the pipeline needs:

- ``send_payload`` / ``recv_payload`` — tagged point-to-point payloads
  (bytes-like or :class:`~repro.dist.wire.Segments` scatter-gather lists);
- ``broadcast`` — root fans one payload to every rank;
- ``scatter`` — root sends each rank its own payload (input distribution:
  a rank receives only the blocks it convolves);
- ``alltoall`` — every rank ships each peer the payload meant for it and
  receives one from each; sends drain on a pump thread while this thread
  receives, so it cannot deadlock on full socket buffers.  The FFT
  baselines' transposes are this call (:mod:`repro.dist.traditional`);
- ``sparse_allgather`` — the same swap under the ``exchange`` category:
  *the* single sparse accumulation exchange of the paper (Fig 1(b)), per
  destination, so a peer is sent only the values of the octree cells
  that touch its boxes;
- ``sparse_allgather_stream`` — the same exchange fed chunk by chunk
  while compute is still running (:class:`StreamedAllgather`);
- ``barrier`` — empty exchange.

Every receive in this module goes through one loop,
:meth:`Communicator._next_frame`, the only caller of ``transport.recv``.
Collectives run in the same order on every rank and both transports keep
per-pair FIFO order, so matching on (source, tag) is sufficient — but
ranks are not in lock-step: a fast rank's frames for the *next*
collective (or the next pool job) can land while this rank still drains
the current one.  Such frames are parked, never dropped, and every
receive consults the parked list before touching the wire.  Heartbeat
frames are consumed there too and fed to the
:class:`~repro.dist.heartbeat.HeartbeatMonitor`, so prolonged peer
silence surfaces as :class:`~repro.errors.RankFailure` even while a
receive is blocked.
"""

from __future__ import annotations

from typing import Collection, List, Optional, Set

from repro.dist.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.dist.ledger import (
    CATEGORY_BCAST,
    CATEGORY_CONTROL,
    CATEGORY_DATA,
    CATEGORY_EXCHANGE,
)
from repro.dist.transport import Transport
from repro.dist.wire import Frame, FrameKind, FramePayload
from repro.errors import (
    CommunicationError,
    IdleTimeout,
    RankFailure,
    TransportError,
)
from repro.util.clock import Clock, MonotonicClock

#: Tags for the pipeline's bulk-synchronous phases.  This block is the
#: *central wire-tag registry* (TAG001): every ``TAG_*`` constant lives
#: here, values are unique, and every tag is paired with a receive-side
#: dispatch somewhere in ``dist/`` or ``pool/``.
#: The scattered input: each rank's own ``(index, k^3 block)`` pairs.
TAG_FIELD = 2
TAG_EXCHANGE = 3
TAG_BARRIER = 4
#: End-of-stream marker for the streamed exchange: one empty frame per
#: peer closes that peer's chunk stream.
TAG_EXCHANGE_END = 5
#: Broadcast tag for the merged checkpoint a resumed job restores from
#: (``repro.dist.worker.rank_main``; only the standing pool resumes jobs).
TAG_POOL_CHECKPOINT = 6
#: One axis-swap transpose of a distributed FFT baseline.
TAG_TRANSPOSE = 9

#: Slice size for receive waits so the heartbeat monitor is consulted
#: even while blocked on a quiet fabric.
_POLL_SLICE_S = 0.25


class Communicator:
    """Collectives for one rank over a pluggable transport.

    Parameters
    ----------
    transport:
        The rank's transport endpoint.
    recv_timeout_s:
        Default deadline for every receive.
    heartbeat_s:
        Beacon interval; ``None`` disables heartbeating (the EOF-based
        crash detection in the transports still applies).  When enabled,
        peers silent for ``4 *`` this interval are declared failed.
    clock:
        Time source for receive deadlines, heartbeat expiry and send spans
        (injectable for tests).
    """

    def __init__(
        self,
        transport: Transport,
        recv_timeout_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        clock: Optional[Clock] = None,
    ):
        self.transport = transport
        self.recv_timeout_s = float(recv_timeout_s)
        self.clock = clock if clock is not None else MonotonicClock()
        self.monitor: Optional[HeartbeatMonitor] = None
        self._sender: Optional[HeartbeatSender] = None
        peers = self._peers()
        if heartbeat_s is not None and peers:
            self.monitor = HeartbeatMonitor(
                peers, timeout_s=4.0 * heartbeat_s, clock=self.clock
            )
            self._sender = HeartbeatSender(transport, heartbeat_s)
            self._sender.start()
        #: DATA frames that arrived ahead of the receive that wants them,
        #: in arrival order
        self._parked: List[Frame] = []

    @property
    def rank(self) -> int:
        """This endpoint's rank id."""
        return self.transport.rank

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self.transport.size

    def _peers(self) -> List[int]:
        return [r for r in range(self.size) if r != self.rank]

    # -- the receive loop ---------------------------------------------------
    def _next_frame(
        self,
        awaited: Collection[int],
        tags: Collection[int],
        deadline: float,
        category: str,
    ) -> Frame:
        """The next DATA frame from a rank in ``awaited`` tagged one of
        ``tags`` — parked frames first, then the wire.

        The one receive loop: it polls in :data:`_POLL_SLICE_S` slices so
        the heartbeat monitor is checked while the fabric is quiet,
        consumes HEARTBEAT frames, treats BYE from an awaited rank as
        that rank's failure, and parks every other DATA frame for the
        receive it belongs to.  Only :class:`IdleTimeout` is retried; any
        other transport error means a stream broke and propagates at
        once.  ``deadline`` is on :attr:`clock`.
        """
        for i, parked in enumerate(self._parked):
            if parked.src in awaited and parked.tag in tags:
                return self._parked.pop(i)
        while True:
            remaining = deadline - self.clock.now()
            if remaining <= 0:
                raise TransportError(
                    f"rank {self.rank}: receive of tag {sorted(tags)} timed "
                    f"out with ranks {sorted(awaited)} still silent"
                )
            try:
                frame = self.transport.recv(
                    min(remaining, _POLL_SLICE_S),
                    category,
                    frame_timeout=remaining,
                )
            except IdleTimeout:
                if self.monitor is not None:
                    self.monitor.check()
                continue
            if self.monitor is not None:
                self.monitor.record(frame.src)
            if frame.kind == FrameKind.HEARTBEAT:
                continue
            if frame.kind == FrameKind.BYE:
                if frame.src in awaited:
                    raise RankFailure(
                        f"rank {frame.src} said BYE while rank {self.rank} "
                        f"still expected tag {sorted(tags)} from it"
                    )
                continue
            if frame.src in awaited and frame.tag in tags:
                return frame
            self._parked.append(frame)

    # -- point-to-point -----------------------------------------------------
    def send_payload(
        self,
        dst: int,
        payload: FramePayload,
        tag: int,
        category: str = CATEGORY_DATA,
    ) -> None:
        """Send ``payload`` to ``dst`` under ``tag``.

        ``payload`` is any bytes-like object or a
        :class:`~repro.dist.wire.Segments` list — segments ride the
        transport's scatter-gather path without being concatenated.
        """
        self.transport.send(dst, Frame(FrameKind.DATA, self.rank, tag, payload), category)

    def recv_payload(
        self,
        src: int,
        tag: int,
        timeout: Optional[float] = None,
        category: str = CATEGORY_DATA,
    ) -> bytes:
        """Receive the payload tagged ``tag`` from ``src``.

        Raises :class:`TransportError` on deadline or a broken stream,
        :class:`RankFailure` on peer death, BYE or heartbeat silence.
        """
        budget = self.recv_timeout_s if timeout is None else float(timeout)
        deadline = self.clock.now() + budget
        return self._next_frame((src,), (tag,), deadline, category).payload

    # -- collectives --------------------------------------------------------
    def broadcast(
        self,
        payload: Optional[FramePayload],
        root: int = 0,
        tag: int = TAG_FIELD,
        category: str = CATEGORY_BCAST,
    ) -> FramePayload:
        """Fan ``payload`` from ``root`` to every rank; returns the payload.

        Non-root ranks pass ``payload=None`` and receive the root's bytes.
        """
        if self.rank == root and payload is None:
            raise CommunicationError("broadcast root needs a payload")
        payloads = None if payload is None else [payload] * self.size
        return self.scatter(payloads, root=root, tag=tag, category=category)

    def scatter(
        self,
        payloads: Optional[List[FramePayload]],
        root: int = 0,
        tag: int = TAG_FIELD,
        category: str = CATEGORY_BCAST,
    ) -> FramePayload:
        """Send ``payloads[dst]`` from ``root`` to each rank ``dst``;
        returns this rank's own payload.

        Non-root ranks pass ``payloads=None``.  Traffic is counted under
        the ``bcast`` category by default: this is input distribution.
        """
        if not 0 <= root < self.size:
            raise CommunicationError(f"scatter root {root} out of range")
        if self.rank != root:
            return self.recv_payload(root, tag, category=category)
        if payloads is None or len(payloads) != self.size:
            raise CommunicationError(
                f"scatter root needs one payload per rank ({self.size})"
            )
        for dst in self._peers():
            self.send_payload(dst, payloads[dst], tag, category)
        return payloads[root]

    def alltoall(
        self,
        payloads: List[FramePayload],
        tag: int = TAG_TRANSPOSE,
        category: str = CATEGORY_DATA,
    ) -> List[FramePayload]:
        """Send ``payloads[dst]`` to every peer, receive one ``tag`` frame
        from each; returns per-source payloads (own slot passed through).

        One call is one all-to-all round: ``size - 1`` frames out per rank,
        an empty payload included, counted under ``category``.

        Sends drain through a one-batch send window on a pump thread
        while this thread receives, so full kernel socket buffers can
        never deadlock the collective, whatever the payload size.
        """
        if len(payloads) != self.size:
            raise CommunicationError(
                f"need one payload per rank ({self.size}), got {len(payloads)}"
            )
        result = list(payloads)
        pending: Set[int] = set(self._peers())
        if not pending:
            return result
        with self.transport.send_window(
            window=1, name="exchange", clock=self.clock
        ).closing(timeout=self.recv_timeout_s) as window:
            window.submit(
                [
                    (dst, Frame(FrameKind.DATA, self.rank, tag, payloads[dst]), category)
                    for dst in sorted(pending)
                ]
            )
            deadline = self.clock.now() + self.recv_timeout_s
            while pending:
                frame = self._next_frame(pending, (tag,), deadline, category)
                result[frame.src] = frame.payload
                pending.discard(frame.src)
        return result

    def sparse_allgather(
        self,
        payloads: List[FramePayload],
        tag: int = TAG_EXCHANGE,
        category: str = CATEGORY_EXCHANGE,
    ) -> List[FramePayload]:
        """The single sparse exchange: every rank sends ``payloads[dst]``
        to each peer ``dst`` and receives one payload from each.

        ``payloads`` has one entry per rank; this rank's own slot is never
        sent and comes back exactly as passed.  Returns the per-rank
        payloads indexed by source rank (a
        :class:`~repro.dist.wire.Segments` payload goes out scatter-gather
        and comes back on peers as one contiguous buffer).  All traffic is
        counted under the ``exchange`` category — the bytes the audit
        compares with the per-destination prediction.
        """
        return self.alltoall(payloads, tag, category)

    def sparse_allgather_stream(
        self,
        tag: int = TAG_EXCHANGE,
        end_tag: int = TAG_EXCHANGE_END,
        window: int = 2,
        category: str = CATEGORY_EXCHANGE,
    ) -> "StreamedAllgather":
        """Open a streamed sparse exchange (overlap mode).

        Where :meth:`sparse_allgather` ships one payload per peer after all
        compute has finished, the streamed variant accepts each chunk's
        per-peer payloads *as they are produced*
        (:meth:`StreamedAllgather.push`) and drains them on a bounded
        :class:`~repro.dist.transport.SendWindow` while the caller keeps
        computing — the send half of the exchange hides behind compute.
        :meth:`StreamedAllgather.finish` closes this rank's stream with an
        ``end_tag`` marker frame per peer and collects every peer's chunk
        list.  Merging all chunks by sub-domain index yields exactly the
        payload set of the barrier-mode exchange, so results stay bitwise
        identical.
        """
        return StreamedAllgather(
            self, tag=tag, end_tag=end_tag, window=window, category=category
        )

    def barrier(self, tag: int = TAG_BARRIER) -> None:
        """Block until every rank has entered the barrier."""
        self.alltoall([b""] * self.size, tag, CATEGORY_CONTROL)

    def close(self) -> None:
        """Stop heartbeating and close the transport gracefully."""
        if self._sender is not None:
            self._sender.stop()
        self.transport.close()


class StreamedAllgather:
    """One in-progress streamed sparse exchange (see
    :meth:`Communicator.sparse_allgather_stream`).

    Protocol: every pushed chunk goes to each peer as a ``tag`` DATA
    frame carrying that peer's payload, the moment the send window drains
    it; :meth:`finish` sends one
    empty ``end_tag`` frame per peer, then receives until every peer's
    ``end_tag`` has arrived.  Chunks from one peer are delivered in push
    order (both transports preserve per-pair ordering), but no cross-peer
    ordering is assumed anywhere.

    Wire accounting: chunk ``i``'s frames are attributed to ledger window
    ``<name>:<i>`` and the end markers to ``<name>:end``, all under the
    exchange category — summing the per-window counters reproduces the
    category totals that the exchange audit reads.
    """

    def __init__(
        self,
        comm: Communicator,
        tag: int = TAG_EXCHANGE,
        end_tag: int = TAG_EXCHANGE_END,
        window: int = 2,
        category: str = CATEGORY_EXCHANGE,
        name: str = "stream",
    ):
        if tag == end_tag:
            raise CommunicationError(
                f"stream tag and end tag must differ, both are {tag}"
            )
        self.comm = comm
        self.tag = tag
        self.end_tag = end_tag
        self.category = category
        self.name = name
        self._peers = comm._peers()
        self._own: List[FramePayload] = []
        self._seq = 0
        self._finished = False
        self._window = (
            comm.transport.send_window(window=window, name=name, clock=comm.clock)
            if self._peers
            else None
        )

    @property
    def chunks_pushed(self) -> int:
        """Number of chunk payloads pushed so far."""
        return self._seq

    def push(self, payloads: List[FramePayload]) -> None:
        """Stream one chunk to every peer (bounded, non-blocking).

        ``payloads`` has one entry per rank: ``payloads[dst]`` goes to
        peer ``dst``, and this rank's own slot is kept for :meth:`finish`
        to hand back.  Each is any bytes-like object or a
        :class:`~repro.dist.wire.Segments` list (carried through the send
        window and onto the socket without concatenation).  Returns as
        soon as the chunk is queued on the send window; blocks only when
        ``window`` chunks are already in flight (backpressure).
        """
        if self._finished:
            raise CommunicationError("stream already finished")
        comm = self.comm
        if len(payloads) != comm.size:
            raise CommunicationError(
                f"need one payload per rank ({comm.size}), got {len(payloads)}"
            )
        self._own.append(payloads[comm.rank])
        if self._window is not None:
            self._window.submit(
                [
                    (dst, Frame(FrameKind.DATA, comm.rank, self.tag, payloads[dst]), self.category)
                    for dst in self._peers
                ],
                label=f"{self.name}:{self._seq}",
            )
        self._seq += 1

    def hidden_seconds(self, until: float) -> float:
        """Send time that elapsed before instant ``until`` on the
        communicator's clock.

        With ``until`` = the moment local compute ended, this is the wire
        time the stream hid behind compute.
        """
        if self._window is None:
            return 0.0
        return self._window.sent_seconds_before(until)

    def send_seconds(self) -> float:
        """Total wire send time of the stream (hidden + visible)."""
        if self._window is None:
            return 0.0
        return self._window.sent_seconds_total()

    def finish(self, timeout: Optional[float] = None) -> List[List[FramePayload]]:
        """Close this rank's stream and collect every peer's chunks.

        Returns per-rank chunk lists indexed by source rank (this rank's
        own chunks included at its slot, in push order).  Raises
        :class:`RankFailure` when a peer dies mid-stream,
        :class:`TransportError` on deadline.
        """
        if self._finished:
            raise CommunicationError("stream already finished")
        self._finished = True
        comm = self.comm
        budget = comm.recv_timeout_s if timeout is None else float(timeout)
        result: List[List[FramePayload]] = [[] for _ in range(comm.size)]
        result[comm.rank] = list(self._own)
        if self._window is None:
            return result
        end = Frame(FrameKind.DATA, comm.rank, self.end_tag, b"")
        self._window.submit(
            [(dst, end, self.category) for dst in self._peers],
            label=f"{self.name}:end",
        )
        with self._window.closing(timeout=budget):
            streaming = set(self._peers)
            deadline = comm.clock.now() + budget
            while streaming:
                frame = comm._next_frame(
                    streaming, (self.tag, self.end_tag), deadline, self.category
                )
                if frame.tag == self.tag:
                    result[frame.src].append(frame.payload)
                else:
                    streaming.discard(frame.src)
        return result
