"""Full-mesh TCP transport over host/port endpoints.

Mesh construction: every rank owns a listening socket (bound by the
launcher's or pool agent's bootstrap, port chosen by the OS); rank ``r``
*connects* to every rank below it and *accepts* from every rank above
it, identifying inbound connections by their first ``HELLO`` frame.
After bootstrap each pair of ranks shares exactly one TCP connection
carrying length-prefixed :mod:`repro.dist.wire` frames in both
directions.  Endpoints are ``(host, port)`` pairs — bare ports (the
localhost launcher's historical form) still work and mean
``127.0.0.1`` — so the same bootstrap forms meshes across hosts.

Dialing tolerates staggered joins: a peer's listener may not exist yet
when this rank dials (multi-host rendezvous, slow CI hosts), so
:meth:`TcpTransport._dial` retries with capped exponential backoff plus
deterministic jitter until the mesh deadline.  Every deadline is read
from an injected :class:`~repro.util.clock.Clock` and all dial-side
waiting goes through it, so the retry schedule is unit-testable without
wall-clock sleeps.

Concurrency: frames may be written by the application thread, the
heartbeat thread and a :class:`~repro.dist.transport.SendWindow` pump
simultaneously, so each peer socket has a write lock and each frame is
written while holding it (frames never interleave).

Zero-copy data plane: sends go out with ``socket.sendmsg`` scatter-gather
over the frame's header/payload views (header packed into a per-peer
scratch buffer — no per-frame ``bytes`` even for heartbeats), and
receives land in a reusable :class:`~repro.dist.transport.RecvArena` via
``recv_into``.  A received DATA payload is a ``memoryview`` over an arena
slab whose ownership passes to the consumer.

Failure mapping: nothing inbound within the idle wait →
:class:`~repro.errors.IdleTimeout` (stream intact, poll again); peer EOF
without a prior ``BYE`` → :class:`~repro.errors.RankFailure` naming the
dead rank; a frame that stalls, ends or fails validation part-way →
:class:`~repro.errors.TransportError` with the offset reached, and that
connection is closed — its byte stream has no frame boundary left to
resume from.
"""

from __future__ import annotations

import random
import selectors
import socket
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.dist.ledger import CATEGORY_CONTROL, CATEGORY_DATA, WireLedger
from repro.dist.transport import RecvArena, Transport
from repro.dist.wire import (
    HEADER_BYTES,
    Frame,
    FrameKind,
    decode_header,
)
from repro.errors import (
    CommunicationError,
    ConfigurationError,
    IdleTimeout,
    RankFailure,
    TransportError,
)
from repro.util.clock import Clock, MonotonicClock

#: Default wall-clock budget for building the full mesh.
CONNECT_TIMEOUT_S = 20.0

#: Cap on buffers per ``sendmsg`` call (POSIX IOV_MAX is >= 1024 on the
#: platforms we run; exceeding it raises EMSGSIZE).
_IOV_CAP = 1024

#: A mesh endpoint: ``(host, port)``; a bare ``int`` port means localhost.
Endpoint = Tuple[str, int]

#: First dial retry delay; doubles per attempt up to :data:`DIAL_CAP_S`.
DIAL_BASE_S = 0.02

#: Ceiling on a single dial backoff delay.
DIAL_CAP_S = 1.0

#: Jitter fraction: each delay is scaled into ``[1 - jitter, 1]``.
DIAL_JITTER = 0.5


def normalize_endpoints(
    endpoints: Sequence[Union[int, Endpoint]],
) -> List[Endpoint]:
    """Canonicalize a bootstrap endpoint list to ``(host, port)`` pairs.

    Bare ``int`` ports keep the historical localhost-launcher meaning of
    ``("127.0.0.1", port)``; anything else must already be a
    ``(host, port)`` pair.  Mixed lists are fine — the localhost driver
    and a multi-host rendezvous produce the same canonical form.
    """
    out: List[Endpoint] = []
    for ep in endpoints:
        if isinstance(ep, int):
            out.append(("127.0.0.1", ep))
            continue
        try:
            host, port = ep
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"endpoint {ep!r} is neither a port nor a (host, port) pair"
            ) from None
        out.append((str(host), int(port)))
    return out


def dial_backoff_s(
    attempt: int,
    rng: random.Random,
    base: float = DIAL_BASE_S,
    cap: float = DIAL_CAP_S,
    jitter: float = DIAL_JITTER,
) -> float:
    """Delay before dial retry ``attempt`` (0-based): capped exponential
    backoff with deterministic jitter.

    The raw delay ``base * 2**attempt`` is clamped to ``cap`` and scaled
    by a factor drawn from ``[1 - jitter, 1]`` using the caller's seeded
    ``rng`` — reproducible per (rank, peer) pair, decorrelated across
    pairs, so a thundering herd of dialers spreads out without any
    global coordination.
    """
    raw = min(float(cap), float(base) * (2.0 ** max(0, attempt)))
    return raw * (1.0 - jitter * rng.random())


def dial_with_backoff(
    endpoint: Endpoint,
    rank: int,
    dst: int,
    deadline: float,
    clock: Clock,
    connect=socket.create_connection,
) -> socket.socket:
    """Connect to ``endpoint``, retrying until ``deadline`` on the clock.

    The peer's listener may not exist yet (staggered multi-host join), so
    refused/unreachable dials retry on the :func:`dial_backoff_s`
    schedule, seeded per (rank, dst) pair so concurrent dialers
    desynchronize deterministically.  Waits go through ``clock.sleep``
    and the deadline is read from ``clock.now()`` — inject a manual
    clock (and a fake ``connect``) to unit-test the schedule without
    sockets or sleeps.
    """
    rng = random.Random(0x6D65_7368 ^ (rank << 20) ^ dst)
    attempt = 0
    last_err: Optional[Exception] = None
    while True:
        now = clock.now()
        if now >= deadline:
            break
        try:
            return connect(endpoint, timeout=min(1.0, max(0.1, deadline - now)))
        except OSError as exc:  # listener may not be accepting yet
            last_err = exc
        delay = dial_backoff_s(attempt, rng)
        attempt += 1
        clock.sleep(min(delay, max(0.0, deadline - clock.now())))
    raise TransportError(
        f"rank {rank}: could not connect to rank {dst} at "
        f"{endpoint[0]}:{endpoint[1]} after {attempt} attempts: {last_err}"
    )


def _read_exact_into(
    sock: socket.socket, view: memoryview, deadline: float, src: int, clock: Clock
) -> int:
    """Fill ``view`` completely from ``sock`` before ``deadline`` on ``clock``.

    Returns the byte count read — ``len(view)``, or 0 for a clean EOF at
    a frame boundary (no bytes read); raises :class:`TransportError` for
    EOF or deadline mid-read.  Data lands directly in ``view`` via
    ``recv_into`` — no intermediate chunk list, no join.
    """
    n = len(view)
    got = 0
    while got < n:
        remaining = deadline - clock.now()
        if remaining <= 0:
            raise TransportError(
                f"receive from rank {src} timed out mid-frame "
                f"(got {got} of {n} bytes)"
            )
        sock.settimeout(remaining)
        try:
            count = sock.recv_into(view[got:], n - got)
        except socket.timeout:
            raise TransportError(
                f"receive from rank {src} timed out mid-frame "
                f"(got {got} of {n} bytes)"
            ) from None
        except OSError as exc:
            raise TransportError(
                f"socket error receiving from rank {src}: {exc}"
            ) from exc
        if count == 0:
            if got == 0:
                return 0
            raise TransportError(
                f"stream from rank {src} truncated at offset {got} "
                f"(wanted {n} bytes)"
            )
        got += count
    return got


def _sendmsg_all(
    sock: socket.socket, segments: List[memoryview], total: int
) -> None:
    """Write every segment with scatter-gather ``sendmsg`` (no join).

    Handles partial sends by advancing past fully-written segments and
    re-slicing the partial one (both zero-copy), and caps the iovec list
    at :data:`_IOV_CAP` buffers per call.
    """
    pending = [s for s in segments if len(s)]
    sent_total = 0
    while pending:
        sent = sock.sendmsg(pending[:_IOV_CAP])
        sent_total += sent
        while pending and sent >= len(pending[0]):
            sent -= len(pending[0])
            pending.pop(0)
        if sent and pending:
            pending[0] = pending[0][sent:]
    if sent_total != total:  # pragma: no cover - defensive
        raise TransportError(
            f"scatter-gather send wrote {sent_total} of {total} bytes"
        )


class TcpTransport(Transport):
    """One rank's endpoint of a full-mesh TCP fabric.

    Parameters
    ----------
    rank, size:
        This endpoint's rank and the job size.
    endpoints:
        ``endpoints[r]`` is rank r's listening endpoint — a
        ``(host, port)`` pair, or a bare port meaning 127.0.0.1 (the
        localhost launcher's historical form).
    listener:
        This rank's already-bound listening socket (from the bootstrap).
    ledger:
        Wire accounting; a private ledger is created if omitted.
    connect_timeout:
        Wall-clock budget for mesh construction.
    clock:
        Time source for every deadline here — mesh construction, dial
        retries/backoff, receives (injectable for tests).
    """

    def __init__(
        self,
        rank: int,
        size: int,
        endpoints: Sequence[Union[int, Endpoint]],
        listener: socket.socket,
        ledger: Optional[WireLedger] = None,
        connect_timeout: float = CONNECT_TIMEOUT_S,
        clock: Optional[Clock] = None,
    ):
        super().__init__(rank, size, ledger)
        self._clock = clock if clock is not None else MonotonicClock()
        self._peers: Dict[int, socket.socket] = {}
        self._send_locks: Dict[int, threading.Lock] = {}
        #: per-peer header scratch, written under the peer's send lock —
        #: control frames (heartbeat, BYE) allocate nothing per send
        self._send_scratch: Dict[int, bytearray] = {}
        self._bye_from: Set[int] = set()
        self._closed = False
        self._selector = selectors.DefaultSelector()
        #: reusable receive buffers (header scratch + payload slabs)
        self.arena = RecvArena()
        self._build_mesh(normalize_endpoints(endpoints), listener, connect_timeout)

    # -- bootstrap ----------------------------------------------------------
    def _build_mesh(
        self,
        endpoints: List[Endpoint],
        listener: socket.socket,
        connect_timeout: float,
    ) -> None:
        deadline = self._clock.now() + connect_timeout
        # Connect down: this rank dials every lower rank's listener.
        for dst in range(self.rank):
            sock = self._dial(endpoints[dst], dst, deadline)
            self._register(dst, sock)
            self.send(dst, Frame(FrameKind.HELLO, self.rank, 0), CATEGORY_CONTROL)
        # Accept up: every higher rank dials us and leads with HELLO.
        expected = self.size - 1 - self.rank
        for _ in range(expected):
            remaining = deadline - self._clock.now()
            if remaining <= 0:
                raise TransportError(
                    f"rank {self.rank}: mesh bootstrap timed out with "
                    f"{expected - len([r for r in self._peers if r > self.rank])} "
                    "peers still unconnected"
                )
            listener.settimeout(remaining)
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                continue
            frame = self._read_frame_blocking(sock, deadline, src=-1)
            if frame is None or frame.kind != FrameKind.HELLO:
                raise TransportError(
                    f"rank {self.rank}: expected HELLO on inbound "
                    f"connection, got {frame.kind.name if frame else 'EOF'}"
                )
            self.ledger.record_recv(CATEGORY_CONTROL, frame.nbytes)
            self._register(frame.src, sock)
        listener.close()

    def _dial(self, endpoint: Endpoint, dst: int, deadline: float) -> socket.socket:
        sock = dial_with_backoff(
            endpoint, self.rank, dst, deadline, self._clock
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _register(self, src: int, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._peers[src] = sock
        self._send_locks[src] = threading.Lock()
        self._send_scratch[src] = bytearray(HEADER_BYTES)
        self._selector.register(sock, selectors.EVENT_READ, src)

    # -- frame I/O ----------------------------------------------------------
    def _read_frame_blocking(
        self, sock: socket.socket, deadline: float, src: int
    ) -> Optional[Frame]:
        """Read one frame into the arena; ``None`` means clean EOF at a
        frame boundary.  A DATA payload is a ``memoryview`` over an arena
        slab — ownership passes to the frame's consumer."""
        header = self.arena.header_view()
        if _read_exact_into(sock, header, deadline, src, self._clock) == 0:
            return None
        kind, fsrc, tag, length = decode_header(header)
        if length:
            payload: "memoryview | bytes" = self.arena.take(length)
            if _read_exact_into(sock, payload, deadline, fsrc, self._clock) == 0:
                raise TransportError(
                    f"frame from rank {fsrc} truncated at offset "
                    f"{HEADER_BYTES}: header declares {length} "
                    "payload bytes"
                )
        else:
            payload = b""
        return Frame(kind=kind, src=fsrc, tag=tag, payload=payload)

    def send(self, dst: int, frame: Frame, category: str = CATEGORY_DATA) -> None:
        """Write ``frame`` with one locked scatter-gather ``sendmsg``.

        The header is packed into the peer's scratch buffer and the
        payload views go straight from the frame's buffers to the socket
        — no concatenation, no per-frame allocation.
        """
        self._check_peer(dst)
        sock = self._peers.get(dst)
        if sock is None:
            raise RankFailure(
                f"rank {self.rank}: no connection to rank {dst} "
                "(peer closed or never joined)"
            )
        try:
            with self._send_locks[dst]:
                sock.settimeout(None)
                segments = frame.encode_into(self._send_scratch[dst])
                _sendmsg_all(sock, segments, frame.nbytes)
        except OSError as exc:
            raise RankFailure(
                f"rank {self.rank}: send to rank {dst} failed "
                f"({exc}) — peer likely dead"
            ) from exc
        self.ledger.record_send(category, frame.nbytes)

    def recv(
        self,
        timeout: float,
        category: str = CATEGORY_DATA,
        frame_timeout: Optional[float] = None,
    ) -> Frame:
        """Return the next frame from any peer (selector-multiplexed).

        ``timeout`` is spent only in ``select``, waiting for a frame to
        start; a readable socket is then read to the end of its frame
        under ``frame_timeout`` (see :meth:`Transport.recv`).
        """
        start = self._clock.now()
        idle_deadline = start + timeout
        frame_deadline = start + (timeout if frame_timeout is None else frame_timeout)
        while True:
            remaining = idle_deadline - self._clock.now()
            if remaining <= 0:
                raise IdleTimeout(
                    f"rank {self.rank}: receive timed out after {timeout}s "
                    "(message dropped or peer stalled)"
                )
            events = self._selector.select(remaining)
            if not events:
                continue
            key = events[0][0]
            sock, src = key.fileobj, key.data
            try:
                frame = self._read_frame_blocking(sock, frame_deadline, src)
            except TransportError:
                self._drop_peer(src)  # mid-frame: no boundary to resume from
                raise
            if frame is None:  # EOF at frame boundary
                self._drop_peer(src)
                if src in self._bye_from:
                    continue  # graceful close; keep waiting for real traffic
                raise RankFailure(
                    f"rank {src} closed its connection abruptly (crashed?) "
                    f"while rank {self.rank} was receiving"
                )
            if frame.kind == FrameKind.BYE:
                self._bye_from.add(frame.src)
                self.ledger.record_recv(CATEGORY_CONTROL, frame.nbytes)
                return frame
            self.ledger.record_recv(category, frame.nbytes)
            return frame

    def _drop_peer(self, src: int) -> None:
        """Close and forget the connection to ``src`` (idempotent)."""
        sock = self._peers.pop(src, None)
        if sock is not None:
            self._selector.unregister(sock)
            sock.close()

    def close(self) -> None:
        """Send ``BYE`` everywhere reachable, then close all sockets."""
        if self._closed:
            return
        self._closed = True
        for dst in list(self._peers):
            try:
                self.send(dst, Frame(FrameKind.BYE, self.rank, 0), CATEGORY_CONTROL)
            except CommunicationError:
                pass
            self._drop_peer(dst)
        self._selector.close()
