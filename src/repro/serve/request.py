"""Request lifecycle model for the convolution service.

A submitted convolution travels::

    PENDING -> QUEUED -> RUNNING -> DONE
                  |          |`-> FAILED      (worker failure, retries spent)
                  |          `--> TIMED_OUT   (deadline expired mid-queue/run)
                  |`------------> TIMED_OUT   (deadline expired while queued)
                  `-------------> REJECTED    (admission control said no)

Callers hold a :class:`RequestHandle` — a small future: ``result()``
blocks until the terminal state and either returns the
:class:`~repro.core.pipeline.ConvolutionResult` or raises the stored
:class:`~repro.errors.ServiceError` subclass.

Batching is driven by the :attr:`ConvolutionRequest.compat_key`: two
requests are batchable iff they share grid size, sub-domain size, kernel,
sampling policy, and execution flags — exactly the state one cached
:class:`~repro.core.pipeline.LowCommConvolution3D` amortizes (sampling
patterns and pruned-FFT plans).
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.pipeline import ConvolutionResult
from repro.core.policy import SamplingPolicy
from repro.errors import ServiceError


class RequestState(enum.Enum):
    """Where a request is in its lifecycle."""

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    REJECTED = "rejected"


#: States from which a request never moves again.
TERMINAL_STATES = frozenset(
    {
        RequestState.DONE,
        RequestState.FAILED,
        RequestState.TIMED_OUT,
        RequestState.REJECTED,
    }
)

#: Batching compatibility key: (n, k, kernel name, policy, pencil batch).
#: Requests sharing it share patterns and plans.
CompatKey = Tuple[int, int, str, SamplingPolicy, Optional[int]]

class RequestHandle:
    """Caller-side future for one submitted request.

    Thread-safe: the executor resolves it from scheduler/worker threads
    while the caller blocks in :meth:`result`.
    """

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._state = RequestState.PENDING
        self._result: Optional[ConvolutionResult] = None
        self._error: Optional[ServiceError] = None

    @property
    def state(self) -> RequestState:
        """Current lifecycle state."""
        with self._lock:
            return self._state

    def done(self) -> bool:
        """True once the request reached a terminal state."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until terminal (or ``timeout`` seconds); return done()."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> ConvolutionResult:
        """The request's :class:`ConvolutionResult`, blocking if needed.

        Raises the stored :class:`~repro.errors.ServiceError` subclass if
        the request was rejected, timed out, or failed; raises
        :class:`TimeoutError` if ``timeout`` elapses first.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not finished within {timeout}s"
            )
        with self._lock:
            if self._error is not None:
                raise self._error
            assert self._result is not None
            return self._result

    def exception(self) -> Optional[ServiceError]:
        """The stored failure, or None (only meaningful once done)."""
        with self._lock:
            return self._error

    # -- executor-side transitions ------------------------------------------
    def _set_state(self, state: RequestState) -> None:
        with self._lock:
            if self._state not in TERMINAL_STATES:
                self._state = state

    def _finish(
        self,
        state: RequestState,
        result: Optional[ConvolutionResult] = None,
        error: Optional[ServiceError] = None,
    ) -> bool:
        """Move to a terminal state once; return False if already terminal."""
        with self._lock:
            if self._state in TERMINAL_STATES:
                return False
            self._state = state
            self._result = result
            self._error = error
        self._event.set()
        return True


@dataclass
class ConvolutionRequest:
    """One unit of work: convolve ``field`` under a named kernel.

    Timestamps are in the server clock's timebase.  ``queued_at`` is set
    at admission and feeds the max-wait flush trigger; it survives a
    retry (the request already served its batching wait, so it re-runs as
    soon as its ``not_before`` backoff expires).  ``submitted_at`` anchors
    the deadline and end-to-end latency.
    """

    request_id: int
    field: np.ndarray
    n: int
    k: int
    kernel: str
    policy: SamplingPolicy
    batch: Optional[int]
    submitted_at: float
    deadline: Optional[float]  # absolute clock time, None = no deadline
    handle: RequestHandle
    queued_at: float = 0.0
    not_before: float = 0.0  # retry backoff eligibility time
    attempts: int = 0

    @property
    def compat_key(self) -> CompatKey:
        """Batching key: requests sharing it may run in one batch."""
        return (self.n, self.k, self.kernel, self.policy, self.batch)

    def expired(self, now: float) -> bool:
        """True once the deadline (if any) has passed."""
        return self.deadline is not None and now >= self.deadline
