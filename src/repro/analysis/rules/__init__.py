"""Rule registry for the repro lint framework.

Thirteen codebase-specific rules generic linters cannot express:

========  ==============================================================
LCK001    static lock-acquisition ordering graph must be acyclic
LCK002    no blocking syscalls while holding a (non-I/O) lock
LCK003    acquire/release pairing proven on every CFG path
RES001    sockets/windows/slabs/files released on every CFG path
EXC001    broad ``except`` on transport/rank paths keeps failures typed
CLK001    serving layer reads time only through the injectable Clock
WIRE001   wire-format constants are defined once, imported elsewhere
WIRE002   no bytes(view) / b''.join copies on data-plane hot paths
TAG001    wire tags unique, registry-homed, and send/recv paired
GEN001    roster mutations bump the generation; job paths fence first
API001    public names and ``__all__`` stay in sync
NDA001    docstring dtype/shape contracts match the returned value
DEAD001   every public src/repro definition is referenced by program code
========  ==============================================================

LCK003, RES001, and GEN001 are flow-sensitive: they run dataflow
fixpoints over per-function CFGs from :mod:`repro.analysis.flow` and
print path witnesses with their convictions.  DEAD001 is project-wide:
it reads the fixed reference roots beside ``src/repro`` whatever paths
the engine was given.

:func:`default_rules` is what the engine instantiates when none are
given; :func:`rule_by_id` resolves a single rule class for targeted
runs and fixture tests.
"""

from __future__ import annotations

from typing import List, Type

from repro.analysis.rules.api import ExportHygieneRule
from repro.analysis.rules.base import Rule, ScopeVisitor
from repro.analysis.rules.clock import InjectableClockRule
from repro.analysis.rules.exceptions import BroadExceptRule
from repro.analysis.rules.generation import GenerationFenceRule
from repro.analysis.rules.locks import LockHeldBlockingRule, LockOrderRule
from repro.analysis.rules.numpy_contracts import NumpyContractRule
from repro.analysis.rules.reachability import ReachabilityRule
from repro.analysis.rules.resources import (
    LockPairingRule,
    ResourceReleaseRule,
)
from repro.analysis.rules.tags import WireTagRule
from repro.analysis.rules.wire import WireConstantRule, WireCopyRule

__all__ = [
    "Rule",
    "ScopeVisitor",
    "LockOrderRule",
    "LockHeldBlockingRule",
    "LockPairingRule",
    "ResourceReleaseRule",
    "BroadExceptRule",
    "InjectableClockRule",
    "WireConstantRule",
    "WireCopyRule",
    "WireTagRule",
    "GenerationFenceRule",
    "ExportHygieneRule",
    "NumpyContractRule",
    "ReachabilityRule",
    "default_rules",
    "rule_by_id",
]

_ALL_RULES: List[Type[Rule]] = [
    LockOrderRule,
    LockHeldBlockingRule,
    LockPairingRule,
    ResourceReleaseRule,
    BroadExceptRule,
    InjectableClockRule,
    WireConstantRule,
    WireCopyRule,
    WireTagRule,
    GenerationFenceRule,
    ExportHygieneRule,
    NumpyContractRule,
    ReachabilityRule,
]


def default_rules() -> List[Type[Rule]]:
    """The full registered rule set, in reporting order."""
    return list(_ALL_RULES)


def rule_by_id(rule_id: str) -> Type[Rule]:
    """Resolve one rule class by its id (e.g. ``"LCK001"``)."""
    for rule_cls in _ALL_RULES:
        if rule_cls.rule_id == rule_id:
            return rule_cls
    from repro.errors import ConfigurationError

    raise ConfigurationError(
        f"unknown lint rule {rule_id!r}; known: "
        f"{[r.rule_id for r in _ALL_RULES]}"
    )
