"""Span tracing applied from outside the program.

The traced run wraps calls into each layer's public functions and methods
from here, so nothing under ``src/`` knows it is being measured.  A span is
``[name, start, end, parent, op]``: ``parent`` is the index of the span that
was open on the same thread when this one started, ``op`` the operation (one
solve, one job, one request) it belongs to.  Spans stay in memory until
:meth:`Tracer.dump`.

A layer's *self* time is its span's duration minus the part its child spans
cover; children run nested on the parent's thread, so that part is the sum of
their durations.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

#: (span name, dotted target).  Targets are looked up when tracing starts: one
#: that no longer exists is noted and skipped, so a refactor that deletes or
#: folds a function cannot fail the benchmark, only blank its metric.
TARGETS: List[Tuple[str, str]] = [
    ("core.run", "repro.core.pipeline.LowCommConvolution3D.run_serial"),
    ("core.convolve", "repro.core.local_conv.LocalConvolution.convolve"),
    ("core.accumulate", "repro.core.accumulate.accumulate_global"),
    ("core.checkpoint_encode", "repro.core.checkpoint.checkpoint_segments"),
    ("core.checkpoint_encode", "repro.core.checkpoint.join_checkpoint_segments"),
    ("core.checkpoint_decode", "repro.core.checkpoint.checkpoint_from_bytes"),
    ("fft.plan_get", "repro.fft.pruned_plan.PlanCache.get"),
    ("fft.plan_build", "repro.fft.pruned_plan.PrunedPlan.__init__"),
    ("fft.forward_slab", "repro.fft.pruned_plan.PrunedPlan.forward_slab"),
    ("fft.zstage", "repro.fft.pruned_plan.PrunedPlan.zstage"),
    ("fft.idft_z", "repro.fft.pruned_plan.PrunedPlan.idft_z"),
    ("fft.idft_y", "repro.fft.pruned_plan.PrunedPlan.idft_y"),
    ("fft.idft_x", "repro.fft.pruned_plan.PrunedPlan.idft_x"),
    ("octree.reconstruct", "repro.octree.interpolate.reconstruct_box"),
    ("dist.rank", "repro.dist.worker.rank_main"),
    ("dist.broadcast", "repro.dist.collectives.Communicator.broadcast"),
    ("dist.allgather", "repro.dist.collectives.Communicator.sparse_allgather"),
    ("dist.allgather", "repro.dist.collectives.StreamedAllgather.push"),
    ("dist.allgather", "repro.dist.collectives.StreamedAllgather.finish"),
]


def _resolve(dotted: str):
    """``(owner, attribute name, object)`` for a dotted path, else ``None``."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """Records spans for the targets it wraps; one instance per traced run."""

    def __init__(self, targets: Iterable[Tuple[str, str]] = TARGETS):
        self.targets = list(targets)
        self.spans: List[list] = []
        #: span names with at least one live target
        self.wrapped: set = set()
        self.notes: List[str] = []
        #: the operation the harness is running now; a root span on any
        #: thread joins it, and gets an id of its own when there is none
        #: (a served request runs on the server's thread, unannounced)
        self.current_op: Optional[str] = None
        self._anonymous = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------
    def install(self) -> None:
        for name, dotted in self.targets:
            found = _resolve(dotted)
            if found is None:
                self.notes.append(f"trace target {dotted} not found; {name} incomplete")
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
            else:
                # a module-level function: callers that imported it by name
                # hold their own reference, so rebind every one of them
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                self._rebind(module, key, original, wrapper)
            self.wrapped.add(name)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        spans, local, lock = self.spans, self._local, self._lock
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if stack:
                parent = stack[-1]
                op = spans[parent][4]
            else:
                parent = None
                op = self.current_op
                if op is None:
                    op = f"anon{next(self._anonymous)}"
            span = [name, 0.0, 0.0, parent, op]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- derived numbers -----------------------------------------------------
    def self_times(self, ops: Optional[set] = None) -> Dict[str, Tuple[float, int]]:
        """``{span name: (total self seconds, calls)}`` over ``ops``
        (every op when ``None``)."""
        child_time = defaultdict(float)
        for _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            if ops is None or op in ops:
                totals[name][0] += (end - start) - child_time[index]
                totals[name][1] += 1
        return {name: (total, calls) for name, (total, calls) in totals.items()}

    def dump(self, path) -> None:
        """Write every span, times relative to the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [name, start - origin, end - origin, parent, op]
                for name, start, end, parent, op in self.spans
            ],
            "notes": self.notes,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
