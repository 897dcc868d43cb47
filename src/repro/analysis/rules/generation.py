"""GEN001: generation-fence conformance for the rank runtime.

The standing pool survives membership churn through one invariant pair
(PR 8): every :class:`~repro.pool.membership.Roster` mutation bumps the
roster ``generation``, and every job path that touches roster state
checks the job's stamped generation against the agent's *before* running
— otherwise a rank evicted mid-job keeps computing against a stale mesh
and the bitwise guarantee silently dies.  GEN001 proves both halves
statically for every file under ``pool/`` (the roster) and ``dist/`` (the
job handler every rank process runs, :mod:`repro.dist.agent`):

**Mutation ⇒ bump.**  Inside a class, any method that mutates a
members-map attribute (subscript assign/delete on, or a mutating method
call like ``.pop()``/``.clear()``/``.update()`` against, an attribute
whose name contains ``member``) must also bump the generation in the
same method: an assignment/aug-assignment to a ``.generation`` attribute
or a constructor call passing ``generation=`` (the ``Roster.form`` idiom).
The finding names both sites — the mutation line and the method.

**Job ⇒ fence.**  Every call to ``execute_job(...)`` must be *dominated*
by fence evidence — a call to a function whose name contains ``fence``
(``Roster.fence``, ``fence_generation``) or an explicit comparison of
two ``.generation`` attributes.  This is a must-analysis over the CFG
(:mod:`repro.analysis.flow`): the ``fenced`` fact is generated at
evidence nodes and intersected at joins, so it survives only if *every*
path from entry passes a fence.  A conviction prints the unfenced path
witness from function entry to the call.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.analysis.engine import FileContext, Finding
from repro.analysis.flow import (
    CFGNode,
    ForwardDataflow,
    format_witness,
    functions_in,
    path_witness,
    stmt_expressions,
)
from repro.analysis.rules.base import Rule, _expr_tail

#: Dict-mutating method names that count as roster-membership mutation.
_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault"}
)

#: The fact proven by the must-analysis.
_FENCED = "fenced"

#: Directory names whose files are checked: the pool's roster and the
#: job handler shared with the cold launcher.
_SCOPE = frozenset({"pool", "dist"})


def _is_members_attr(expr: ast.expr) -> bool:
    """True for an attribute whose name marks it as the members map."""
    return isinstance(expr, ast.Attribute) and "member" in expr.attr.lower()


def _mutation_sites(method: ast.AST) -> List[ast.AST]:
    """AST nodes inside ``method`` that mutate a members-map attribute."""
    sites: List[ast.AST] = []
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and _is_members_attr(
                    target.value
                ):
                    sites.append(node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _is_members_attr(
                    target.value
                ):
                    sites.append(node)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and _is_members_attr(func.value)
            ):
                sites.append(node)
    return sites


def _bumps_generation(method: ast.AST) -> bool:
    """True when the method bumps a generation anywhere."""
    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "generation"
                ):
                    return True
        elif isinstance(node, ast.Call):
            if any(kw.arg == "generation" for kw in node.keywords):
                return True
    return False


def _fence_evidence(node: CFGNode) -> bool:
    """True when this CFG node checks a generation fence."""
    for expr in stmt_expressions(node.stmt):
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Call):
                tail = _expr_tail(sub.func)
                if tail and "fence" in tail.lower():
                    return True
            elif isinstance(sub, ast.Compare):
                sides = [sub.left] + list(sub.comparators)
                if any(
                    isinstance(s, ast.Attribute) and s.attr == "generation"
                    for s in sides
                ):
                    return True
    return False


def _execute_calls(node: CFGNode) -> List[ast.Call]:
    """``execute_job(...)`` call expressions evaluated at this node."""
    calls: List[ast.Call] = []
    for expr in stmt_expressions(node.stmt):
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Call)
                and _expr_tail(sub.func) == "execute_job"
            ):
                calls.append(sub)
    return calls


class GenerationFenceRule(Rule):
    """GEN001: roster mutations bump, job paths fence."""

    rule_id = "GEN001"
    description = "roster mutations bump generation; job paths fence first"

    def check_file(self, ctx: FileContext) -> List[Finding]:
        """Check both fence invariants over one ``pool/`` or ``dist/`` file."""
        if not _SCOPE & set(ctx.parts[:-1]):
            return []
        findings: List[Finding] = []
        findings += self._check_mutations(ctx)
        findings += self._check_job_paths(ctx)
        return findings

    def _check_mutations(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                sites = _mutation_sites(method)
                if not sites or _bumps_generation(method):
                    continue
                for site in sites:
                    findings.append(
                        self.finding(
                            ctx,
                            site,
                            f"{node.name}.{method.name}() mutates the "
                            f"roster members map at line {site.lineno} "
                            "without bumping the generation (method "
                            f"defined at line {method.lineno}) — stale "
                            "ranks will not be fenced",
                        )
                    )
        return findings

    def _check_job_paths(self, ctx: FileContext) -> List[Finding]:
        findings: List[Finding] = []
        for qualname, func in functions_in(ctx.tree):
            cfg = ctx.cfg(func, qualname)
            fence_nodes: Set[int] = {
                node.index for node in cfg.nodes if _fence_evidence(node)
            }
            exec_nodes = [
                node for node in cfg.nodes if _execute_calls(node)
            ]
            if not exec_nodes:
                continue

            def transfer(node: CFGNode, inp):
                if node.index in fence_nodes:
                    return inp | {_FENCED}
                return inp

            result = ForwardDataflow(cfg, transfer, may=False).run()
            for node in exec_nodes:
                if _FENCED in result.at(node.index):
                    continue
                witness = path_witness(
                    cfg,
                    cfg.entry,
                    node.index,
                    avoid=lambda n: n.index in fence_nodes,
                )
                path_text = (
                    format_witness(witness) if witness else "(path elided)"
                )
                findings.append(
                    Finding(
                        path=ctx.relpath,
                        line=node.line,
                        col=1,
                        rule_id=self.rule_id,
                        message=(
                            f"execute_job() at line {node.line} in "
                            f"{qualname}() runs without a guaranteed "
                            "generation fence: unfenced path "
                            f"{path_text} — call fence_generation()/"
                            "Roster.fence() on every path first"
                        ),
                    )
                )
        return findings
