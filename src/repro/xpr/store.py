"""Append-only JSONL trajectory store.

The **trajectory** is the repository's perf memory: one JSON object per
line, each recording one trial execution keyed by ``(experiment,
trial_id, git_rev)``.  Appending is the only write operation — history
is never rewritten, so the gate can always compare the newest record of
a trial against the median of its predecessors.  The file is committed
(``TRAJECTORY.jsonl`` at the repository root) so every checkout carries
its own baseline.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass, field as dataclass_field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import ConfigurationError

#: Version stamped into every trajectory record.
SCHEMA_VERSION = 1


def git_revision(root: Optional[Path] = None) -> str:
    """Short git revision of ``root`` (cwd by default), or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def wall_timestamp() -> str:
    """UTC wall-clock timestamp for record provenance (ISO-8601)."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass
class TrialRecord:
    """One trajectory line: a trial execution and its metrics."""

    experiment: str
    trial_id: str
    git_rev: str = "unknown"
    ts: str = ""
    status: str = "ok"
    params: Dict[str, object] = dataclass_field(default_factory=dict)
    metrics: Dict[str, float] = dataclass_field(default_factory=dict)
    error: Optional[str] = None

    def to_json(self) -> dict:
        """The stable line schema (sorted keys are the writer's job)."""
        doc = {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "trial_id": self.trial_id,
            "git_rev": self.git_rev,
            "ts": self.ts,
            "status": self.status,
            "params": dict(self.params),
            "metrics": dict(self.metrics),
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc

    @classmethod
    def from_json(cls, doc: Mapping[str, object]) -> "TrialRecord":
        """Parse one line's document; unknown keys are ignored."""
        try:
            return cls(
                experiment=str(doc["experiment"]),
                trial_id=str(doc["trial_id"]),
                git_rev=str(doc.get("git_rev", "unknown")),
                ts=str(doc.get("ts", "")),
                status=str(doc.get("status", "ok")),
                params=dict(doc.get("params", {})),
                metrics=dict(doc.get("metrics", {})),
                error=doc.get("error"),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"trajectory record is missing required key {exc}"
            ) from None


class TrajectoryStore:
    """Append-only JSONL store of :class:`TrialRecord` lines.

    Reading tolerates a missing file (an empty trajectory); a malformed
    line fails loudly with its line number — silent corruption of the
    perf baseline is the one thing a regression gate cannot survive.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)

    def append(self, record: TrialRecord) -> None:
        """Append one record (creates the file on first write)."""
        self.extend([record])

    def extend(self, records: Iterable[TrialRecord]) -> None:
        """Append many records in one write."""
        lines = [
            json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))
            for r in records
        ]
        if not lines:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def records(self) -> List[TrialRecord]:
        """Every record, in file (= chronological append) order."""
        if not self.path.exists():
            return []
        out = []
        for lineno, line in enumerate(
            self.path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{self.path}:{lineno}: trajectory line does not "
                    f"parse: {exc.msg}"
                ) from None
            out.append(TrialRecord.from_json(doc))
        return out

    def experiments(self) -> List[str]:
        """Sorted experiment names present in the store."""
        return sorted({r.experiment for r in self.records()})

    def history(self, experiment: str, trial_id: str) -> List[TrialRecord]:
        """One trial's records (oldest first)."""
        return [
            r
            for r in self.records()
            if r.experiment == experiment and r.trial_id == trial_id
        ]
