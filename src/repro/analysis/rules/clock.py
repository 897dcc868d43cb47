"""CLK001: direct wall-clock reads inside clock-injected layers.

Everything in :mod:`repro.serve`, :mod:`repro.pool` and
:mod:`repro.dist` is specified to read time through the injectable
:class:`repro.util.clock.Clock` so scheduler flushes, deadlines,
heartbeats and rendezvous waits are testable with a
:class:`~repro.util.clock.ManualClock` and zero real sleeps.  One
stray ``time.monotonic()`` re-introduces wall-clock nondeterminism into
a path the tests believe is virtual — the kind of drift that only shows
up as a flaky deadline test months later.

This rule flags every call to ``time.time`` / ``time.monotonic`` /
``time.sleep`` / ``time.perf_counter`` (module-qualified or imported
bare) in any file under a ``serve/``, ``pool/`` or ``dist/`` directory,
with no exemption: the one sanctioned adapter between the
:class:`Clock` interface and the real clock, ``util/clock.py``, sits
outside the clocked trees.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules.base import Rule

#: ``time`` module functions clock-injected layers must not call directly.
_CLOCK_FUNCS = frozenset({"time", "monotonic", "sleep", "perf_counter"})

#: Directory names whose Python files are held to the injectable-Clock
#: contract (the serving layer, the standing rank pool, and the
#: cross-rank runtime beneath it).
_CLOCKED_TREES = frozenset({"serve", "pool", "dist"})


class InjectableClockRule(Rule):
    """CLK001: clock-injected trees must use the Clock, not ``time.*``."""

    rule_id = "CLK001"
    description = (
        "serve/, pool/ and dist/ read time only through "
        "repro.util.clock.Clock"
    )

    def check_file(self, ctx: FileContext) -> List[Finding]:
        """Flag direct wall-clock calls in serve/, pool/ and dist/ modules."""
        if not _CLOCKED_TREES & set(ctx.parts):
            return []
        imported_bare = {
            alias.asname or alias.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ImportFrom) and node.module == "time"
            for alias in node.names
            if alias.name in _CLOCK_FUNCS
        }
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in _CLOCK_FUNCS
            ):
                name = f"time.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in imported_bare:
                name = func.id
            if name is not None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"direct {name}() in a clock-injected layer — "
                        "inject a repro.util.clock.Clock and call "
                        "clock.now() / clock.sleep() so the path stays "
                        "deterministic under ManualClock",
                    )
                )
        return findings
