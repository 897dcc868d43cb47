"""Exception hierarchy for the :mod:`repro` package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing configuration mistakes (:class:`ConfigurationError`), resource
exhaustion on simulated devices (:class:`DeviceMemoryError`), and protocol
misuse of the rank communicator (:class:`CommunicationError`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """An invalid parameter, shape, or policy was supplied by the caller."""


class ShapeError(ConfigurationError):
    """Array shape incompatible with the requested operation."""


class DeviceMemoryError(ReproError, MemoryError):
    """A simulated device ran out of memory (the paper's OOM boundary).

    Raised by :class:`repro.cluster.memory.MemoryTracker` when an allocation
    would exceed the device capacity.  This is the mechanism behind Table 2
    (maximum allowable sub-domain size ``k`` per grid size ``N``).
    """

    def __init__(self, message: str, *, requested: int = 0, available: int = 0):
        super().__init__(message)
        #: bytes requested by the failing allocation
        self.requested = int(requested)
        #: bytes that were still free on the device
        self.available = int(available)


class CommunicationError(ReproError):
    """Misuse of the rank communicator (rank mismatch, dead rank...)."""


class RankFailure(CommunicationError):
    """A rank died mid-collective (crash detected, or injected in tests)."""


class TransportError(CommunicationError):
    """A wire-level transport failure: timeout, truncated frame, bad magic.

    Distinct from :class:`RankFailure` — a transport error means the
    *channel* misbehaved (message lost, stream corrupted, deadline blown)
    while the peer may well be alive; a rank failure means the peer is
    gone.  Recovery strategies differ, so the types do too.
    """


class IdleTimeout(TransportError):
    """No frame *started* arriving within a receive's idle wait.

    The one transport error a receive loop may answer by polling again:
    the stream is intact and merely quiet.  Every other
    :class:`TransportError` (a frame that stalled or broke part-way, bad
    magic) means the stream can no longer be trusted.
    """


class InputFrameError(CommunicationError):
    """An input-distribution payload (scattered blocks, or a kernel array
    sent under its key) failed validation, or a job named a kernel the
    rank neither holds nor was sent.

    Raised before anything is allocated from the payload's own lengths
    or cached; ``offset`` is the byte offset of the field that was
    rejected (0 for a kernel).
    """

    def __init__(self, message: str, *, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        #: byte offset within the payload of the rejected field
        self.offset = int(offset)


class ExchangeFrameError(CommunicationError):
    """A peer's exchange frame does not fit what this rank derives from
    the job's configuration: a sub-domain out of range, one the peer
    does not own or that this rank already holds, one none of whose cells
    this rank needs, a value count other than the derived cells' sample
    count, or a frame shorter or longer than its entries.

    ``offset`` is the byte offset, within that frame, of the rejected
    entry (or of the bytes left over after the last one).
    """

    def __init__(self, message: str, *, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        #: byte offset within the payload of the rejected entry
        self.offset = int(offset)


class PoolError(ReproError):
    """A standing rank-pool operation failed (bootstrap, membership, job).

    Base class for everything :mod:`repro.pool` can do other than run a
    job to completion: rendezvous backends that cannot be reached,
    agents that never publish, meshes that cannot re-form.  Transport
    and liveness failures *inside* a running job keep their existing
    :class:`CommunicationError` types — a pool error means the pool
    itself (its roster, bootstrap, or control plane) misbehaved.
    """


class StaleGenerationError(PoolError):
    """A pool message carried a roster generation that is no longer live.

    Generation fencing: every mesh (re)formation bumps the roster
    generation, and agents reject work stamped with an older one.  A
    rank that was evicted (or partitioned during a re-form) can
    therefore never execute — or answer for — a job belonging to the
    roster that replaced it.
    """

    def __init__(self, message: str, *, seen: int = 0, current: int = 0):
        super().__init__(message)
        #: generation carried by the rejected message
        self.seen = int(seen)
        #: generation the receiver is fenced to
        self.current = int(current)


class ConcurrencyViolation(ReproError):
    """The runtime lock watcher observed an unsafe concurrency pattern.

    Raised by :meth:`repro.analysis.lockwatch.LockWatchReport.check` when
    the dynamic per-thread lock-acquisition graph contains a cycle (a
    potential deadlock: two threads acquired the same locks in opposite
    orders) or a blocking call was made while holding a non-I/O lock.
    Carries the full report so test failures show the witness — thread
    names, acquisition stacks, and the offending edge list.
    """

    def __init__(self, message: str, *, report=None):
        super().__init__(message)
        #: the :class:`repro.analysis.lockwatch.LockWatchReport` witness
        self.report = report


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""

    def __init__(self, message: str, *, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = int(iterations)
        self.residual = float(residual)


class ServiceError(ReproError):
    """A request failed inside the :mod:`repro.serve` serving layer.

    Base class for everything the convolution service can do to a request
    other than complete it; carries the terminal request state name so
    callers logging failures do not need to re-derive it.
    """

    def __init__(self, message: str, *, request_id: int | None = None):
        super().__init__(message)
        #: id of the request this error terminated (None for server-level errors)
        self.request_id = request_id


class AdmissionError(ServiceError):
    """The server refused to enqueue a request (queue full / bad config).

    This is the reject-on-full admission control: under overload the
    service sheds load at the front door instead of growing an unbounded
    backlog.
    """


class RequestTimeoutError(ServiceError, TimeoutError):
    """A request's deadline expired before (or while) it could be served."""
