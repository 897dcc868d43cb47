"""TAG001: wire-tag registry conformance across ``dist/`` + ``pool/``.

Every frame on the wire carries a tag, and the protocol only works if
three things hold project-wide: tags are **unique** (a collision routes
a checkpoint payload into a field decoder), tags live in **one
registry** (``dist/collectives.py`` — a tag defined elsewhere is
invisible to anyone auditing the protocol), and every tag that appears
at a **send** site has a matching **receive-side dispatch** somewhere
across ``dist/`` + ``pool/`` (and vice versa — a receive with no sender
is a hang waiting for a frame that never comes).

Detection is a project-wide finalize pass.  While files in scope (any
path containing a ``dist`` or ``pool`` component) are scanned, the rule
collects:

- **definitions** — top-level ``TAG_* = <int>`` assignments, with the
  registry being any ``dist/.../collectives.py``;
- **send evidence** — a ``TAG_*`` name passed to a call whose name
  contains ``send``, or used in a ``Frame(...)`` construction;
- **receive evidence** — passed to a call whose name contains ``recv``,
  or compared against a ``.tag`` attribute (the dispatch test);
- **symmetric evidence** — passed to (or used as a parameter default
  of) a collective — ``broadcast``/``scatter``/``allgather``/
  ``alltoall``/``barrier``/``exchange``, matched against the function *and* enclosing
  class name — which both sends and receives by construction.

After the last file, duplicates, out-of-registry definitions, and
one-sided tags are reported; every finding names both sites involved so
the conviction is actionable without re-running anything.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Tuple

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules.base import Rule, _expr_tail

#: Wire-tag naming convention.
TAG_RE = re.compile(r"^TAG_[A-Z0-9_]+$")

#: The registry: this basename under a ``dist`` component.
REGISTRY_BASENAME = "collectives.py"

#: Name fragments of operations that are symmetric by construction.
_SYMMETRIC_HINTS = (
    "broadcast",
    "scatter",
    "allgather",
    "alltoall",
    "barrier",
    "exchange",
)

#: (relpath, line) — a source location in a report.
_Site = Tuple[str, int]


def _fmt_site(site: _Site) -> str:
    return f"{site[0]}:{site[1]}"


def _is_symmetric_scope(func_name: str, class_name: str) -> bool:
    scope = f"{class_name} {func_name}".lower()
    return any(hint in scope for hint in _SYMMETRIC_HINTS)


class _TagUsageVisitor(ast.NodeVisitor):
    """Collects send/recv evidence for TAG_* names in one file."""

    def __init__(self, relpath: str):
        self.relpath = relpath
        self.sends: Dict[str, _Site] = {}
        self.recvs: Dict[str, _Site] = {}
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []

    # -- evidence recording -------------------------------------------------
    def _record(self, kind: str, tag: str, line: int) -> None:
        table = self.sends if kind == "send" else self.recvs
        table.setdefault(tag, (self.relpath, line))

    def _record_both(self, tag: str, line: int) -> None:
        self._record("send", tag, line)
        self._record("recv", tag, line)

    # -- scope tracking -----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_func(self, node) -> None:
        # a TAG_* parameter default inherits the function's direction:
        # ``def barrier(self, tag=TAG_BARRIER)`` both sends and receives
        class_name = self._class_stack[-1] if self._class_stack else ""
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, ast.Name) and TAG_RE.match(default.id):
                if _is_symmetric_scope(node.name, class_name):
                    self._record_both(default.id, default.lineno)
                elif "send" in node.name.lower():
                    self._record("send", default.id, default.lineno)
                elif "recv" in node.name.lower():
                    self._record("recv", default.id, default.lineno)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_func(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_func(node)

    # -- use sites ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = _expr_tail(node.func) or ""
        tags = [
            arg.id
            for arg in list(node.args)
            + [kw.value for kw in node.keywords]
            if isinstance(arg, ast.Name) and TAG_RE.match(arg.id)
        ]
        for tag in tags:
            if _is_symmetric_scope(callee, ""):
                self._record_both(tag, node.lineno)
            elif "send" in callee.lower() or callee == "Frame":
                self._record("send", tag, node.lineno)
            elif "recv" in callee.lower():
                self._record("recv", tag, node.lineno)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # ``frame.tag == TAG_X`` (or !=, in) is the receive-side dispatch
        sides = [node.left] + list(node.comparators)
        has_tag_attr = any(
            isinstance(s, ast.Attribute) and s.attr == "tag" for s in sides
        )
        if has_tag_attr:
            for side in sides:
                if isinstance(side, ast.Name) and TAG_RE.match(side.id):
                    self._record("recv", side.id, node.lineno)
                elif isinstance(side, (ast.Tuple, ast.List, ast.Set)):
                    for elt in side.elts:
                        if isinstance(elt, ast.Name) and TAG_RE.match(
                            elt.id
                        ):
                            self._record("recv", elt.id, node.lineno)
        self.generic_visit(node)


class WireTagRule(Rule):
    """TAG001: unique, registry-homed, send/recv-paired wire tags."""

    rule_id = "TAG001"
    description = "wire tags unique, registry-homed, and paired end to end"

    def __init__(self):
        #: tag name -> (value, site) for every definition seen, in order.
        self._definitions: List[Tuple[str, Optional[int], _Site, bool]] = []
        self._sends: Dict[str, _Site] = {}
        self._recvs: Dict[str, _Site] = {}

    def check_file(self, ctx: FileContext) -> List[Finding]:
        """Collect definitions and use evidence from files in scope."""
        parts = ctx.parts[:-1]
        if "dist" not in parts and "pool" not in parts:
            return []
        in_registry = (
            "dist" in parts and ctx.parts[-1] == REGISTRY_BASENAME
        )
        for node in ctx.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and TAG_RE.match(target.id):
                    value = getattr(node, "value", None)
                    tag_value = (
                        value.value
                        if isinstance(value, ast.Constant)
                        and isinstance(value.value, int)
                        else None
                    )
                    self._definitions.append(
                        (
                            target.id,
                            tag_value,
                            (ctx.relpath, node.lineno),
                            in_registry,
                        )
                    )
        visitor = _TagUsageVisitor(ctx.relpath)
        visitor.visit(ctx.tree)
        for tag, site in visitor.sends.items():
            self._sends.setdefault(tag, site)
        for tag, site in visitor.recvs.items():
            self._recvs.setdefault(tag, site)
        return []

    def finalize(self) -> List[Finding]:
        """Project-wide conformance: uniqueness, home, and pairing."""
        findings: List[Finding] = []
        by_value: Dict[int, Tuple[str, _Site]] = {}
        defined: Dict[str, _Site] = {}
        for name, value, site, in_registry in self._definitions:
            first = name not in defined
            defined.setdefault(name, site)
            if not in_registry and first:
                findings.append(
                    Finding(
                        path=site[0],
                        line=site[1],
                        col=1,
                        rule_id=self.rule_id,
                        message=(
                            f"wire tag {name} is defined at "
                            f"{_fmt_site(site)}, outside the central "
                            f"registry (dist/{REGISTRY_BASENAME}) — move "
                            "it there and re-export"
                        ),
                    )
                )
            if value is None:
                continue
            if value in by_value and by_value[value][0] != name:
                other_name, other_site = by_value[value]
                findings.append(
                    Finding(
                        path=site[0],
                        line=site[1],
                        col=1,
                        rule_id=self.rule_id,
                        message=(
                            f"duplicate wire tag value {value}: {name} "
                            f"defined at {_fmt_site(site)} collides with "
                            f"{other_name} defined at "
                            f"{_fmt_site(other_site)} — tags must be "
                            "unique"
                        ),
                    )
                )
            else:
                by_value.setdefault(value, (name, site))
        for tag, send_site in sorted(self._sends.items()):
            if tag in self._recvs:
                continue
            def_site = defined.get(tag)
            origin = (
                f" (defined at {_fmt_site(def_site)})" if def_site else ""
            )
            findings.append(
                Finding(
                    path=send_site[0],
                    line=send_site[1],
                    col=1,
                    rule_id=self.rule_id,
                    message=(
                        f"wire tag {tag}{origin} is sent at "
                        f"{_fmt_site(send_site)} but never dispatched on "
                        "the receive side anywhere in dist/ or pool/"
                    ),
                )
            )
        for tag, recv_site in sorted(self._recvs.items()):
            if tag in self._sends:
                continue
            def_site = defined.get(tag)
            origin = (
                f" (defined at {_fmt_site(def_site)})" if def_site else ""
            )
            findings.append(
                Finding(
                    path=recv_site[0],
                    line=recv_site[1],
                    col=1,
                    rule_id=self.rule_id,
                    message=(
                        f"wire tag {tag}{origin} is dispatched on receive "
                        f"at {_fmt_site(recv_site)} but never sent "
                        "anywhere in dist/ or pool/"
                    ),
                )
            )
        return findings
