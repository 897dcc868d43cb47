"""Lint engine: file discovery, rule dispatch, suppressions, output.

The engine behind ``python -m repro lint``.  It owns everything that is
*not* rule-specific:

- discovering ``.py`` files under the given paths (skipping
  ``__pycache__``, hidden directories, and ``lint_fixtures`` trees —
  fixture files contain deliberate violations);
- parsing each file once into a shared :class:`FileContext`;
- running every registered :class:`~repro.analysis.rules.base.Rule`
  per file, then giving each rule a :meth:`finalize` pass for
  whole-project invariants (lock-order graphs, wire-constant homes);
- honouring inline suppressions — ``# repro-lint: disable=RULE-ID`` on
  the flagged line silences that rule for that line — and reporting any
  suppression that silenced nothing as a ``SUP001`` warning, so dead
  annotations cannot accumulate;
- rendering findings as ``path:line:col: RULE-ID message`` text or as a
  stable JSON document (``--format=json``) for CI artifacts.

Rules are registered in :mod:`repro.analysis.rules`; the engine imports
nothing heavier than :mod:`ast` so linting stays fast and dependency-free.
"""

from __future__ import annotations

import ast
import io
import json
import re
import time
import tokenize
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from repro.errors import ConfigurationError

#: Inline suppression marker: ``# repro-lint: disable=RULE-ID[,RULE-ID]``.
#: Matched against real comment tokens only, so a docstring *describing*
#: the marker never counts as one.
SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
)

#: Rule id reserved by the engine for unused-suppression warnings.
UNUSED_SUPPRESSION_ID = "SUP001"
#: Rule id reserved by the engine for files that fail to parse.
PARSE_ERROR_ID = "PAR000"

#: Directory names never descended into during discovery.
EXCLUDED_DIRS = frozenset({"__pycache__", "lint_fixtures", ".git"})

#: Schema version stamped into JSON output.  v2 added per-rule wall-time
#: ``timings`` and ``total_seconds`` (the CI lint-budget gate reads them).
JSON_SCHEMA_VERSION = 2


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, sortable into deterministic report order."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"

    def format(self) -> str:
        """Render as the canonical ``path:line:col: RULE-ID message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_json(self) -> dict:
        """JSON-serializable dict form (stable key set)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class FileContext:
    """Everything a rule needs about one source file (parsed once)."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = dataclass_field(default_factory=list)
    _cfgs: Dict[int, object] = dataclass_field(
        default_factory=dict, repr=False
    )

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components of :attr:`relpath` (for directory scoping)."""
        return tuple(Path(self.relpath).parts)

    def cfg(self, func: ast.AST, name: Optional[str] = None):
        """Control-flow graph for one ``def``, built once per file.

        Flow-sensitive rules (RES001, LCK003, GEN001) all walk the same
        functions; caching by node identity means the CFG is constructed
        once no matter how many rules ask.
        """
        key = id(func)
        got = self._cfgs.get(key)
        if got is None:
            from repro.analysis.flow import build_cfg

            got = self._cfgs[key] = build_cfg(func, name)
        return got


def _display_path(path: Path) -> str:
    """Path as shown in findings: cwd-relative when possible, POSIX style."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def discover_files(paths: Sequence[str | Path]) -> List[Path]:
    """Expand files/directories into a sorted list of lintable ``.py`` files.

    Raises :class:`~repro.errors.ConfigurationError` for a path that does
    not exist — a misspelled CI path must fail loudly, not lint nothing.
    """
    found: Set[Path] = set()
    for entry in paths:
        p = Path(entry)
        if p.is_file():
            found.add(p)
        elif p.is_dir():
            for candidate in p.rglob("*.py"):
                rel_parts = candidate.relative_to(p).parts
                if any(
                    part in EXCLUDED_DIRS or part.startswith(".")
                    for part in rel_parts[:-1]
                ):
                    continue
                found.add(candidate)
        else:
            raise ConfigurationError(f"lint path does not exist: {entry}")
    return sorted(found)


class _SuppressionTable:
    """Per-file map of line -> suppressed rule ids, with usage tracking."""

    def __init__(self, relpath: str, source: str):
        self.relpath = relpath
        self.by_line: Dict[int, Set[str]] = {}
        self.used: Set[Tuple[int, str]] = set()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return  # unparseable file: PAR000 is reported by the engine
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = SUPPRESS_RE.search(tok.string)
            if match:
                ids = {
                    rid.strip()
                    for rid in match.group(1).split(",")
                    if rid.strip()
                }
                if ids:
                    self.by_line.setdefault(tok.start[0], set()).update(ids)

    def suppresses(self, finding: Finding) -> bool:
        """True (and mark used) when ``finding`` is silenced by a comment."""
        ids = self.by_line.get(finding.line)
        if ids and finding.rule_id in ids:
            self.used.add((finding.line, finding.rule_id))
            return True
        return False

    def unused(self) -> List[Finding]:
        """``SUP001`` warnings for suppressions that silenced nothing."""
        out = []
        for lineno, ids in sorted(self.by_line.items()):
            for rid in sorted(ids):
                if (lineno, rid) not in self.used:
                    out.append(
                        Finding(
                            path=self.relpath,
                            line=lineno,
                            col=1,
                            rule_id=UNUSED_SUPPRESSION_ID,
                            message=(
                                f"unused suppression: no {rid} finding on "
                                "this line (remove the stale comment)"
                            ),
                            severity="warning",
                        )
                    )
        return out


class LintEngine:
    """Runs a set of rules over a file tree and collects findings.

    Parameters
    ----------
    rules:
        Rule *classes* to instantiate fresh for this run (rules are
        stateful across files for project-wide passes).  Defaults to
        :func:`repro.analysis.rules.default_rules`.
    """

    def __init__(self, rules: Optional[Iterable[Type]] = None):
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        self.rules = [rule_cls() for rule_cls in rules]

    def run(self, paths: Sequence[str | Path]) -> List[Finding]:
        """Lint every file under ``paths``; returns sorted findings.

        Also populates :attr:`rule_seconds` (wall time per rule, across
        ``check_file`` and ``finalize``) and :attr:`total_seconds` for the
        ``--timing`` report and the CI lint-budget gate.
        """
        t_run = time.perf_counter()
        self.rule_seconds: Dict[str, float] = {
            rule.rule_id: 0.0 for rule in self.rules
        }
        files = discover_files(paths)
        findings: List[Finding] = []
        tables: List[_SuppressionTable] = []
        contexts: Dict[str, _SuppressionTable] = {}
        for path in files:
            source = path.read_text(encoding="utf-8")
            relpath = _display_path(path)
            lines = source.splitlines()
            table = _SuppressionTable(relpath, source)
            tables.append(table)
            contexts[relpath] = table
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        path=relpath,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1),
                        rule_id=PARSE_ERROR_ID,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            ctx = FileContext(
                path=path,
                relpath=relpath,
                source=source,
                tree=tree,
                lines=lines,
            )
            for rule in self.rules:
                t0 = time.perf_counter()
                rule_findings = rule.check_file(ctx)
                self.rule_seconds[rule.rule_id] += time.perf_counter() - t0
                for finding in rule_findings:
                    if not table.suppresses(finding):
                        findings.append(finding)
        for rule in self.rules:
            t0 = time.perf_counter()
            rule_findings = rule.finalize()
            self.rule_seconds[rule.rule_id] += time.perf_counter() - t0
            for finding in rule_findings:
                table = contexts.get(finding.path)
                if table is None or not table.suppresses(finding):
                    findings.append(finding)
        for table in tables:
            findings.extend(table.unused())
        self.files_scanned = len(files)
        self.total_seconds = time.perf_counter() - t_run
        return sorted(findings)

    def to_json(self, findings: Sequence[Finding]) -> str:
        """Render findings as the stable CI-artifact JSON document."""
        counts: Dict[str, int] = {}
        for f in findings:
            counts[f.rule_id] = counts.get(f.rule_id, 0) + 1
        doc = {
            "version": JSON_SCHEMA_VERSION,
            "files_scanned": getattr(self, "files_scanned", 0),
            "rules": sorted(rule.rule_id for rule in self.rules),
            "counts": dict(sorted(counts.items())),
            "timings": {
                rid: round(sec, 6)
                for rid, sec in sorted(
                    getattr(self, "rule_seconds", {}).items()
                )
            },
            "total_seconds": round(getattr(self, "total_seconds", 0.0), 6),
            "findings": [f.to_json() for f in findings],
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(
        self, findings: Sequence[Finding], timings: bool = False
    ) -> str:
        """Render findings one per line, with a trailing summary.

        With ``timings=True`` (``repro lint --timing``) a per-rule
        wall-time column follows the summary, slowest rule first.
        """
        lines = [f.format() for f in findings]
        n_err = sum(1 for f in findings if f.severity == "error")
        n_warn = len(findings) - n_err
        if findings:
            lines.append(f"{n_err} error(s), {n_warn} warning(s)")
        else:
            lines.append("clean: no findings")
        if timings:
            per_rule = getattr(self, "rule_seconds", {})
            lines.append("rule timings:")
            for rid, sec in sorted(
                per_rule.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"  {rid:<8} {sec * 1000.0:8.1f} ms")
            total = getattr(self, "total_seconds", 0.0)
            files = getattr(self, "files_scanned", 0)
            lines.append(
                f"  {'total':<8} {total * 1000.0:8.1f} ms"
                f"  ({files} files)"
            )
        return "\n".join(lines) + "\n"
