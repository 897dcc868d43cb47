"""Bounded admission queue, grouped by batching compatibility key.

The queue is the server's only waiting room: every accepted request sits
here (grouped by :attr:`~repro.serve.request.ConvolutionRequest.compat_key`
so the scheduler can form batches without scanning) until it is popped
into a running batch, expires, or is evicted.  Capacity counts *all*
waiting requests across groups — admission control is reject-on-full, the
classic load-shedding front door: under overload the server answers
"rejected" immediately instead of growing an unbounded backlog whose tail
latency nobody can meet.

A second, *per-tenant* admission bound layers on top of the global one:
each tenant may occupy at most its quota of waiting slots, so one noisy
tenant saturating its quota still leaves the rest of the waiting room —
and therefore the batching/latency behaviour — of every quiet tenant
untouched.  Quotas shed load per tenant; they never evict admitted work.

Requests within a group stay in FIFO order by ``queued_at``; a retried
request re-enters at the *front* of its group (it is the oldest work) but
carries a ``not_before`` backoff time the scheduler honours.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Iterator, List, Mapping, Optional

from repro.errors import AdmissionError
from repro.serve.request import CompatKey, ConvolutionRequest
from repro.util.validation import check_positive_int


class BoundedRequestQueue:
    """FIFO groups of waiting requests under one global capacity.

    ``tenant_quotas`` maps tenant names to their maximum waiting-request
    occupancy; ``default_tenant_quota`` applies to tenants not named in
    the map (``None`` = only the global bound applies).
    """

    def __init__(
        self,
        capacity: int,
        tenant_quotas: Optional[Mapping[str, int]] = None,
        default_tenant_quota: Optional[int] = None,
    ):
        self.capacity = check_positive_int(capacity, "capacity")
        self.tenant_quotas = {
            str(t): check_positive_int(q, f"tenant quota for {t!r}")
            for t, q in (tenant_quotas or {}).items()
        }
        self.default_tenant_quota = (
            check_positive_int(default_tenant_quota, "default_tenant_quota")
            if default_tenant_quota is not None
            else None
        )
        self._groups: "OrderedDict[CompatKey, Deque[ConvolutionRequest]]" = (
            OrderedDict()
        )
        self._size = 0
        self._tenant_depths: Dict[str, int] = {}

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[ConvolutionRequest]:
        for group in self._groups.values():
            yield from group

    @property
    def keys(self) -> List[CompatKey]:
        """Compatibility keys with at least one waiting request."""
        return list(self._groups)

    def group(self, key: CompatKey) -> List[ConvolutionRequest]:
        """Waiting requests for ``key``, oldest first (copy)."""
        return list(self._groups.get(key, ()))

    def tenant_quota(self, tenant: str) -> Optional[int]:
        """Effective waiting-room quota for ``tenant`` (None = unbounded)."""
        return self.tenant_quotas.get(tenant, self.default_tenant_quota)

    def push(self, request: ConvolutionRequest, *, front: bool = False) -> None:
        """Admit ``request`` (``front=True`` re-queues a retry).

        Raises :class:`~repro.errors.AdmissionError` when the queue is at
        capacity or the request's tenant is at its quota — the caller owns
        marking the request REJECTED.  Retries are exempt from both
        checks: they already held a slot and rejecting admitted work
        mid-flight would turn a transient worker failure into load
        shedding.
        """
        if not front:
            if self._size >= self.capacity:
                raise AdmissionError(
                    f"queue full ({self._size}/{self.capacity} waiting)",
                    request_id=request.request_id,
                )
            quota = self.tenant_quota(request.tenant)
            depth = self._tenant_depths.get(request.tenant, 0)
            if quota is not None and depth >= quota:
                raise AdmissionError(
                    f"tenant {request.tenant!r} at quota "
                    f"({depth}/{quota} waiting)",
                    request_id=request.request_id,
                )
        group = self._groups.get(request.compat_key)
        if group is None:
            group = deque()
            self._groups[request.compat_key] = group
        if front:
            group.appendleft(request)
        else:
            group.append(request)
        self._size += 1
        self._tenant_depths[request.tenant] = (
            self._tenant_depths.get(request.tenant, 0) + 1
        )

    def pop_batch(
        self, key: CompatKey, max_size: int, now: float
    ) -> List[ConvolutionRequest]:
        """Pop up to ``max_size`` eligible requests from ``key``'s group.

        Eligible means ``not_before <= now``.  Popping stops at the first
        ineligible request to preserve FIFO order within the group (a
        backing-off retry at the front parks the whole group until its
        backoff elapses — it must run first).
        """
        check_positive_int(max_size, "max_size")
        group = self._groups.get(key)
        batch: List[ConvolutionRequest] = []
        while group and len(batch) < max_size and group[0].not_before <= now:
            batch.append(group.popleft())
        self._size -= len(batch)
        self._debit_tenants(batch)
        if group is not None and not group:
            del self._groups[key]
        return batch

    def drain_all(self) -> List[ConvolutionRequest]:
        """Remove and return *every* waiting request (shutdown cancel path).

        The queue is empty afterwards; the caller owns recording a
        terminal outcome on each returned request.
        """
        drained: List[ConvolutionRequest] = []
        for group in self._groups.values():
            drained.extend(group)
        self._groups.clear()
        self._size = 0
        self._tenant_depths.clear()
        return drained

    def remove_expired(self, now: float) -> List[ConvolutionRequest]:
        """Remove and return every waiting request whose deadline passed."""
        expired: List[ConvolutionRequest] = []
        for key in list(self._groups):
            group = self._groups[key]
            kept = deque(r for r in group if not r.expired(now))
            if len(kept) != len(group):
                expired.extend(r for r in group if r.expired(now))
                if kept:
                    self._groups[key] = kept
                else:
                    del self._groups[key]
        self._size -= len(expired)
        self._debit_tenants(expired)
        return expired

    def _debit_tenants(self, removed: List[ConvolutionRequest]) -> None:
        for request in removed:
            depth = self._tenant_depths.get(request.tenant, 0) - 1
            if depth > 0:
                self._tenant_depths[request.tenant] = depth
            else:
                self._tenant_depths.pop(request.tenant, None)

    def next_deadline(self) -> Optional[float]:
        """Earliest waiting deadline, or None when nothing has one."""
        deadlines = [r.deadline for r in self if r.deadline is not None]
        return min(deadlines) if deadlines else None
