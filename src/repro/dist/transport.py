"""Transport interface + the in-process loopback transport.

A :class:`Transport` moves :class:`~repro.dist.wire.Frame` objects between
ranks and counts every frame's wire bytes into a
:class:`~repro.dist.ledger.WireLedger`.  Two implementations ship:

- :class:`LocalTransport` (here) — per-rank in-memory queues inside one
  process.  Frames still round-trip through the byte codec, so the wire
  format and byte accounting are exercised exactly as over a socket, but
  delivery is deterministic and fault injection (dropped messages, killed
  ranks) is a method call.  Ranks run as threads.
- :class:`~repro.dist.tcp.TcpTransport` — real localhost sockets, one OS
  process per rank.

Failure semantics shared by both: a receive during which no frame starts
to arrive raises :class:`~repro.errors.IdleTimeout` (the only transport
error worth polling again on); any other
:class:`~repro.errors.TransportError` means a frame broke part-way and
the stream is lost; end-of-stream from a peer that did not first send
``BYE`` raises :class:`~repro.errors.RankFailure` naming the dead rank.
"""

from __future__ import annotations

import abc
import queue
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.dist.ledger import CATEGORY_CONTROL, CATEGORY_DATA, WireLedger
from repro.dist.wire import HEADER_BYTES, Frame, FrameKind, decode_frame, encode_frame
from repro.errors import (
    CommunicationError,
    IdleTimeout,
    RankFailure,
    TransportError,
)
from repro.util.clock import Clock


class RecvArena:
    """Reusable receive buffers: preallocated, grow-on-demand ``bytearray``
    slabs served as exact-size ``memoryview`` windows.

    The zero-copy receive path reads each frame header into a persistent
    20-byte scratch (:meth:`header_view`) and each payload into a pooled
    slab (:meth:`take`) via ``recv_into`` — no per-frame allocation once
    the pool is warm, and no copy between socket and decoder.

    Lifecycle: ownership of a payload view passes to the frame's consumer
    (decoded :class:`~repro.octree.compress.CompressedField` values alias
    it), so slabs are *not* recycled automatically.  A consumer that is
    finished with a payload may hand its slab back with :meth:`recycle`;
    correctness never depends on it — an unrecycled slab is garbage
    collected with the payload that aliases it.

    Thread safety: the slab pool is locked; the header scratch is a
    single buffer and belongs to the one thread driving the receive loop
    (both transports receive on a single thread).
    """

    #: Smallest slab handed out; payload sizes are rounded up to a
    #: power of two so mixed sizes reuse a small set of size classes.
    MIN_SLAB_BYTES = 4096

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[int, List[bytearray]] = {}
        self._header = bytearray(HEADER_BYTES)
        self.allocated_bytes = 0
        self.slabs_created = 0
        self.slabs_reused = 0
        # warm pool: one minimum-size slab so small frames never allocate
        self.recycle(memoryview(self._new_slab(self.MIN_SLAB_BYTES)))

    def _new_slab(self, size: int) -> bytearray:
        self.allocated_bytes += size
        self.slabs_created += 1
        return bytearray(size)

    def header_view(self) -> memoryview:
        """The persistent frame-header scratch (receive-thread only)."""
        return memoryview(self._header)

    def take(self, n: int) -> memoryview:
        """A writable view of exactly ``n`` bytes over a pooled slab."""
        if n < 0:
            raise CommunicationError(f"cannot take {n} bytes from arena")
        if n == 0:
            return memoryview(bytearray(0))
        size = max(self.MIN_SLAB_BYTES, 1 << (n - 1).bit_length())
        with self._lock:
            pool = self._free.get(size)
            slab = pool.pop() if pool else None
        if slab is None:
            slab = self._new_slab(size)
        else:
            self.slabs_reused += 1
        return memoryview(slab)[:n]

    def recycle(self, view: memoryview) -> None:
        """Return a view's backing slab to the pool (caller must be done
        with every view over it)."""
        slab = view.obj
        if not isinstance(slab, bytearray):
            raise CommunicationError(
                f"can only recycle arena slabs, got a view over "
                f"{type(slab).__name__}"
            )
        with self._lock:
            self._free.setdefault(len(slab), []).append(slab)


class Transport(abc.ABC):
    """Moves frames between ``size`` ranks; counts bytes into a ledger.

    Subclasses implement :meth:`send`, :meth:`recv` and :meth:`close`;
    all of them must record traffic on ``self.ledger``.
    """

    def __init__(self, rank: int, size: int, ledger: Optional[WireLedger] = None):
        if size < 1:
            raise CommunicationError(f"need >= 1 rank, got {size}")
        if not 0 <= rank < size:
            raise CommunicationError(f"rank {rank} out of range [0, {size})")
        self.rank = rank
        self.size = size
        self.ledger = ledger if ledger is not None else WireLedger()

    @abc.abstractmethod
    def send(self, dst: int, frame: Frame, category: str = CATEGORY_DATA) -> None:
        """Deliver ``frame`` to rank ``dst`` (blocking)."""

    @abc.abstractmethod
    def recv(
        self,
        timeout: float,
        category: str = CATEGORY_DATA,
        frame_timeout: Optional[float] = None,
    ) -> Frame:
        """Return the next incoming frame from any source.

        ``timeout`` bounds only the wait for a frame to *start*: with
        nothing inbound for that long the call raises
        :class:`IdleTimeout` and the stream is untouched.  A frame whose
        first byte has arrived is read to completion, for at most
        ``frame_timeout`` seconds from the call (default: ``timeout``) —
        the caller's own deadline, so a poll slice never cuts a large
        payload in half.  A frame that stalls or breaks part-way raises a
        plain :class:`TransportError` and costs the connection it was on;
        a peer's stream ending abruptly raises :class:`RankFailure`.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Gracefully tear down (sends ``BYE`` to peers where applicable)."""

    def send_window(
        self, window: int = 2, name: str = "stream", *, clock: Clock
    ) -> "SendWindow":
        """Open a non-blocking send path with a bounded in-flight window.

        Both transports' :meth:`send` are safe to call from a helper
        thread concurrently with the owning thread's receives (the TCP
        endpoint serializes writers per peer socket, the loopback endpoint
        enqueues atomically), so the returned :class:`SendWindow` can
        drain sends behind the caller's compute.  ``clock`` is the time
        source its send spans are read from.
        """
        return SendWindow(self, window=window, name=name, clock=clock)

    def _check_peer(self, dst: int) -> None:
        if not 0 <= dst < self.size:
            raise CommunicationError(f"peer rank {dst} out of range [0, {self.size})")
        if dst == self.rank:
            raise CommunicationError(f"rank {self.rank} cannot send to itself")


#: Queue sentinel asking a SendWindow's pump thread to exit.
_WINDOW_CLOSE = object()


class SendWindow:
    """Bounded-in-flight asynchronous sends over one transport endpoint.

    :meth:`submit` enqueues a batch of frames (one per destination) and
    returns immediately; a pump thread performs the actual (possibly
    blocking) ``transport.send`` calls.  At most ``window`` batches may be
    queued — a full window makes :meth:`submit` block, which is the
    backpressure that bounds memory: with the default ``window=2`` the
    pipeline is double-buffered, one batch on the wire while the next is
    being produced.

    Each batch may carry a ledger window label; the pump wraps its sends
    in :meth:`WireLedger.window` so wire bytes are attributed to the
    overlap window that moved them.  Send failures (dead peer, torn-down
    fabric) are captured and re-raised from the next :meth:`submit` or
    from :meth:`close` — never swallowed.

    The pump also records its active send spans (start/stop pairs read
    from ``clock``) so callers can measure how much wire time was hidden
    behind compute.
    """

    def __init__(
        self,
        transport: Transport,
        window: int = 2,
        name: str = "stream",
        *,
        clock: Clock,
    ):
        if window < 1:
            raise CommunicationError(f"send window must be >= 1, got {window}")
        self.transport = transport
        self.name = name
        self._clock = clock
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=window)
        self._errors: List[Exception] = []
        self._closed = False
        #: (start, stop) spans on ``clock`` during which the pump was sending
        self.send_spans: List[Tuple[float, float]] = []
        self._thread = threading.Thread(
            target=self._pump,
            name=f"repro-sendwindow-{name}-r{transport.rank}",
            daemon=True,
        )
        self._thread.start()

    def _pump(self) -> None:
        while True:
            item = self._queue.get()
            if item is _WINDOW_CLOSE:
                return
            sends, label = item
            t0 = self._clock.now()
            try:
                if label is not None:
                    with self.transport.ledger.window(label):
                        for dst, frame, category in sends:
                            self.transport.send(dst, frame, category)
                else:
                    for dst, frame, category in sends:
                        self.transport.send(dst, frame, category)
            except Exception as exc:  # noqa: BLE001  # repro-lint: broad-except-ok(pump boundary: every failure is re-raised to the submitting thread)
                self._errors.append(exc)
                return
            finally:
                self.send_spans.append((t0, self._clock.now()))

    def _raise_pending(self) -> None:
        if self._errors:
            raise self._errors[0]

    def submit(
        self,
        sends: List[Tuple[int, Frame, str]],
        label: Optional[str] = None,
    ) -> None:
        """Queue one batch of ``(dst, frame, category)`` sends.

        Blocks while the in-flight window is full (backpressure).  Raises
        the pump's captured error if a previous batch failed.
        """
        if self._closed:
            raise CommunicationError(f"send window {self.name!r} already closed")
        self._raise_pending()
        while True:
            if self._errors:
                # the pump died after we checked: surface it rather than
                # queueing into a window nobody will drain
                self._raise_pending()
            try:
                self._queue.put((sends, label), timeout=0.25)
                return
            except queue.Full:
                continue

    def close(self, timeout: Optional[float] = None) -> None:
        """Flush queued batches, stop the pump, re-raise any send failure."""
        if not self._closed:
            self._closed = True
            while self._thread.is_alive():
                try:
                    self._queue.put(_WINDOW_CLOSE, timeout=0.25)
                    break
                except queue.Full:
                    continue  # pump still draining (or just died): re-check
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise TransportError(
                f"send window {self.name!r} failed to drain within "
                f"{timeout}s (peer not receiving?)"
            )
        self._raise_pending()

    @contextmanager
    def closing(self, timeout: Optional[float] = None) -> Iterator["SendWindow"]:
        """Close the window when the block ends, whatever happens in it.

        The block is the receive half of a collective: a failure there is
        the primary error, so the pump thread is still reaped but a send
        failure discovered while doing so must not mask it.
        """
        try:
            yield self
        except BaseException:
            try:
                self.close(timeout=timeout)
            except CommunicationError:
                pass
            raise
        self.close(timeout=timeout)

    def sent_seconds_before(self, t_monotonic: float) -> float:
        """Total pump send time that elapsed before ``t_monotonic``.

        This is the wire time hidden behind the caller's compute when
        ``t_monotonic`` is the instant compute finished.
        """
        hidden = 0.0
        for start, stop in list(self.send_spans):
            hidden += max(0.0, min(stop, t_monotonic) - start)
        return hidden

    def sent_seconds_total(self) -> float:
        """Total pump send time over the window's whole lifetime."""
        return sum(stop - start for start, stop in list(self.send_spans))


#: Queue sentinel marking abrupt end-of-stream from a rank.
_EOF = "eof"


class LocalFabric:
    """Shared state of an in-process loopback mesh: one inbox per rank.

    Also the fault-injection surface: :meth:`drop_next` silently discards
    an in-flight message (the receiver times out), :meth:`kill` simulates
    a rank crash (peers see abrupt end-of-stream).
    """

    def __init__(self, size: int):
        if size < 1:
            raise CommunicationError(f"need >= 1 rank, got {size}")
        self.size = size
        self._inboxes: List["queue.Queue[Tuple[str, int, bytes]]"] = [
            queue.Queue() for _ in range(size)
        ]
        self._lock = threading.Lock()
        self._drops: Dict[Tuple[int, int], int] = {}
        self._dead: Set[int] = set()

    def endpoint(self, rank: int, ledger: Optional[WireLedger] = None) -> "LocalTransport":
        """The transport endpoint for one rank of this fabric."""
        return LocalTransport(rank, self, ledger)

    def drop_next(self, src: int, dst: int, count: int = 1) -> None:
        """Silently discard the next ``count`` messages from src to dst."""
        with self._lock:
            self._drops[(src, dst)] = self._drops.get((src, dst), 0) + count

    def kill(self, rank: int) -> None:
        """Simulate a crash of ``rank``: peers see abrupt end-of-stream."""
        if not 0 <= rank < self.size:
            raise CommunicationError(f"rank {rank} out of range [0, {self.size})")
        with self._lock:
            self._dead.add(rank)
        for peer in range(self.size):
            if peer != rank:
                self._inboxes[peer].put((_EOF, rank, b""))

    def _should_drop(self, src: int, dst: int) -> bool:
        with self._lock:
            left = self._drops.get((src, dst), 0)
            if left > 0:
                self._drops[(src, dst)] = left - 1
                return True
            return False

    def _deliver(self, src: int, dst: int, data: bytes) -> None:
        with self._lock:
            if src in self._dead:
                raise RankFailure(f"rank {src} is dead and cannot send")
        if not self._should_drop(src, dst):
            self._inboxes[dst].put(("frame", src, data))


class LocalTransport(Transport):
    """Loopback endpoint of a :class:`LocalFabric`.

    Every send encodes the frame to bytes and every receive decodes them,
    so byte counts and codec behaviour match a socket transport exactly.
    """

    def __init__(self, rank: int, fabric: LocalFabric, ledger: Optional[WireLedger] = None):
        super().__init__(rank, fabric.size, ledger)
        self.fabric = fabric
        self._bye_from: Set[int] = set()
        self._closed = False

    def send(self, dst: int, frame: Frame, category: str = CATEGORY_DATA) -> None:
        """Encode and enqueue ``frame`` on ``dst``'s inbox."""
        self._check_peer(dst)
        data = encode_frame(frame)
        self.fabric._deliver(self.rank, dst, data)
        self.ledger.record_send(category, len(data))

    def recv(
        self,
        timeout: float,
        category: str = CATEGORY_DATA,
        frame_timeout: Optional[float] = None,
    ) -> Frame:
        """Dequeue, decode, and count the next incoming frame (frames
        arrive whole here, so ``frame_timeout`` never applies)."""
        try:
            kind, src, data = self.fabric._inboxes[self.rank].get(timeout=timeout)
        except queue.Empty:
            raise IdleTimeout(
                f"rank {self.rank}: receive timed out after {timeout}s "
                "(message dropped or peer stalled)"
            ) from None
        if kind == _EOF:
            if src in self._bye_from:
                # graceful close already seen; keep waiting for real traffic
                return self.recv(timeout, category)
            raise RankFailure(
                f"rank {src} closed its stream abruptly (crashed?) "
                f"while rank {self.rank} was receiving"
            )
        frame = decode_frame(data)
        if frame.kind == FrameKind.BYE:
            self._bye_from.add(frame.src)
            self.ledger.record_recv(CATEGORY_CONTROL, frame.nbytes)
            return frame
        self.ledger.record_recv(category, frame.nbytes)
        return frame

    def close(self) -> None:
        """Send ``BYE`` to every peer (once) and mark the endpoint closed."""
        if self._closed:
            return
        self._closed = True
        for dst in range(self.size):
            if dst == self.rank:
                continue
            try:
                self.send(dst, Frame(FrameKind.BYE, self.rank, 0), CATEGORY_CONTROL)
            except (TransportError, RankFailure):  # pragma: no cover - teardown
                pass
