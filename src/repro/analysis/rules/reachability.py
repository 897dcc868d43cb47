"""DEAD001: every public definition under ``src/repro`` is reached.

A public function, class or method that no program code names is
surface nobody calls: it still has to be read, documented, kept green
by its own tests and dragged through every refactor.  This rule flags a
public module-level ``def``/``class``, or a public method of a public
class, defined under ``src/repro``, when no Python file under the
project's fixed reference roots — ``src/``, ``benchmarks/``,
``examples/`` and ``bench/`` — mentions its name.

Mentions are identifier-shaped words anywhere in a file (code, strings,
comments), so dynamic dispatch by name still counts.  These do not:

- the definition's own span (a recursive call or a class naming itself
  inside its body keeps nothing alive);
- ``from … import`` statements and the ``__all__`` assignment of an
  ``__init__.py`` (a bare re-export is not a use);
- anything under ``tests/`` (a name only tests reach is dead code with
  a test pinned to it).

The reference roots are resolved from the definition's own path (the
directory above ``src/repro``), never from the paths the engine was
asked to lint, so ``repro lint src`` and ``repro lint src tests
benchmarks`` give the same findings.  Exempt: decorated definitions
(registries, properties, fixtures reach them by decorator), dunder
methods (not public), and ``visit_*`` methods of ``ast.NodeVisitor``
subclasses.  A
test oracle — a function a test compares a production path against —
stays with a ``# repro-lint: disable=DEAD001`` comment naming that test.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.engine import FileContext, Finding, discover_files
from repro.analysis.rules.base import Rule

#: Directories (under the project root) whose files count as references.
REFERENCE_ROOTS = ("src", "benchmarks", "examples", "bench")

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CLASS_RE = re.compile(r"^[ \t]*class[ \t]+(\w+)[ \t]*\(([^)]*)\)", re.MULTILINE)
_VISITOR_BASES = frozenset({"NodeVisitor", "NodeTransformer"})
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _project_root(path: Path) -> Optional[Path]:
    """The directory holding ``src/repro`` above ``path``, or None."""
    parts = path.resolve().parts
    for i in range(len(parts) - 2, 0, -1):
        if parts[i] == "src" and parts[i + 1] == "repro":
            return Path(*parts[:i])
    return None


def _reexport_spans(tree: ast.Module) -> List[Tuple[int, int]]:
    """Line spans of an ``__init__``'s ``from … import`` and ``__all__``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) or (
            isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
            )
        ):
            spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _is_visitor(name: str, bases: Dict[str, Set[str]]) -> bool:
    """Whether class ``name`` derives from ``ast.NodeVisitor``, following
    base names through the project's own classes."""
    seen: Set[str] = set()
    todo = [name]
    while todo:
        cls = todo.pop()
        if cls in _VISITOR_BASES:
            return True
        if cls not in seen:
            seen.add(cls)
            todo.extend(bases.get(cls, ()))
    return False


class _Candidate(NamedTuple):
    """One definition the rule may flag."""

    path: Path
    relpath: str
    node: ast.AST
    label: str
    owner: Optional[str] = None  # enclosing class, for methods


class ReachabilityRule(Rule):
    """DEAD001: public definitions that no program code references."""

    rule_id = "DEAD001"
    description = "public src/repro definitions are referenced from program code"

    def __init__(self):
        self._candidates: Dict[Path, List[_Candidate]] = {}
        self._init_trees: Dict[Path, ast.Module] = {}

    def check_file(self, ctx: FileContext) -> List[Finding]:
        """Collect this file's candidate definitions; findings come later.

        Names starting with an underscore, dunders included, are not
        public and never candidates.
        """
        root = _project_root(ctx.path)
        if root is None:
            return []
        path = ctx.path.resolve()
        if path.name == "__init__.py":
            self._init_trees[path] = ctx.tree
        found = self._candidates.setdefault(root, [])
        for node in ctx.tree.body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            if not node.decorator_list:
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                found.append(
                    _Candidate(path, ctx.relpath, node, f"{kind} '{node.name}'")
                )
            if isinstance(node, ast.ClassDef):
                found.extend(
                    _Candidate(
                        path,
                        ctx.relpath,
                        item,
                        f"method '{node.name}.{item.name}'",
                        node.name,
                    )
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and not item.decorator_list
                )
        return []

    # -- the project-wide pass ---------------------------------------------
    def _scan(
        self, root: Path
    ) -> Tuple[Counter, Dict[Path, List[str]], Dict[str, Set[str]]]:
        """Word counts over the reference roots, the scanned lines of each
        file, and every class's base names (for the visitor exemption)."""
        words: Counter = Counter()
        texts: Dict[Path, List[str]] = {}
        bases: Dict[str, Set[str]] = {}
        dirs = [root / d for d in REFERENCE_ROOTS if (root / d).is_dir()]
        for path in discover_files(dirs):
            path = path.resolve()
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            if path.name == "__init__.py":
                tree = self._init_trees.get(path)
                if tree is None:
                    try:
                        tree = ast.parse(source)
                    except SyntaxError:
                        tree = None
                for start, end in _reexport_spans(tree) if tree else ():
                    lines[start - 1 : end] = [""] * (end - start + 1)
            texts[path] = lines
            words.update(_WORD_RE.findall("\n".join(lines)))
            for match in _CLASS_RE.finditer(source):
                bases.setdefault(match.group(1), set()).update(
                    b.strip().rsplit(".", 1)[-1]
                    for b in match.group(2).split(",")
                    if b.strip()
                )
        return words, texts, bases

    def finalize(self) -> List[Finding]:
        """Flag every candidate no reference-root file mentions."""
        findings: List[Finding] = []
        for root, candidates in sorted(self._candidates.items()):
            words, texts, bases = self._scan(root)
            for cand in candidates:
                node = cand.node
                if (
                    cand.owner is not None
                    and node.name.startswith("visit_")
                    and _is_visitor(cand.owner, bases)
                ):
                    continue
                lines = texts.get(cand.path, [])
                own = "\n".join(lines[node.lineno - 1 : node.end_lineno])
                if words[node.name] > _WORD_RE.findall(own).count(node.name):
                    continue
                findings.append(
                    Finding(
                        path=cand.relpath,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        rule_id=self.rule_id,
                        message=(
                            f"public {cand.label} is named nowhere in src/, "
                            "benchmarks/, examples/ or bench/ — delete it, or "
                            "keep a test oracle with a suppression naming "
                            "its test"
                        ),
                    )
                )
        return findings
