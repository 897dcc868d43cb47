"""Regression gate: compare the newest trajectory records to history.

For every trial of an experiment the gate takes the **latest** record as
"current" and the **median of its previous N ok records** as baseline,
then checks each metric against a per-metric threshold:

- structural metrics (bytes, counts, error bounds, wire/model ratios)
  are tight — they are deterministic, so the default threshold is 10%;
- wall-clock-derived metrics (``*_s`` timings, speedups, throughput,
  hidden fractions) are noisy across machines and schedulers, so they
  get a wider band (:attr:`GateConfig.timing_threshold`, default 50%);
- any metric can be pinned individually via :attr:`GateConfig.per_metric`.

A trial whose latest record is a failure (crash or timeout) fails the
gate outright — a benchmark that stops running is the worst regression
of all.  Trials with no prior history are reported as *new* and pass:
the first record of a trial IS its baseline.

The gate renders a readable per-metric diff (baseline, current, percent
change, limit) and exits non-zero through the CLI on any regression —
the enforced-perf-contract half of the subsystem.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.util.clock import Clock, MonotonicClock
from repro.xpr.store import TrajectoryStore, TrialRecord

#: Metric names (last dotted component) where larger values are better.
HIGHER_IS_BETTER = frozenset(
    {
        "speedup",
        "throughput_rps",
        "hidden_frac",
        "mb_per_s",
        "encode_mb_per_s",
        "compression_ratio",
        "bitwise_vs_serial",
        "bitwise_identical",
    }
)

#: Timing-derived metric names (wide threshold; see module docstring).
_TIMING_NAMES = frozenset(
    {"speedup", "throughput_rps", "hidden_frac", "mb_per_s",
     "encode_mb_per_s", "per_call_us"}
)


def is_timing_metric(name: str) -> bool:
    """True for metrics derived from wall-clock time (noisy across hosts)."""
    leaf = name.rsplit(".", 1)[-1]
    return leaf.endswith("_s") or leaf in _TIMING_NAMES


def metric_direction(name: str) -> bool:
    """True when larger is better for ``name`` (default: smaller wins)."""
    return name.rsplit(".", 1)[-1] in HIGHER_IS_BETTER


@dataclass
class GateConfig:
    """Thresholds and history depth for one gate evaluation."""

    #: fractional regression allowed on structural metrics (0.10 = 10%)
    default_threshold: float = 0.10
    #: fractional regression allowed on wall-clock-derived metrics
    timing_threshold: float = 0.50
    #: per-metric overrides (full metric name -> threshold), beats both
    per_metric: Dict[str, float] = dataclass_field(default_factory=dict)
    #: baseline = median of up to this many previous ok records
    history_n: int = 5

    def threshold_for(self, metric: str) -> float:
        """The regression limit applied to ``metric``."""
        if metric in self.per_metric:
            return self.per_metric[metric]
        if is_timing_metric(metric):
            return self.timing_threshold
        return self.default_threshold


@dataclass
class MetricDiff:
    """One gated metric: baseline vs current vs its limit."""

    experiment: str
    trial_id: str
    label: str
    metric: str
    baseline: float
    current: float
    change: float
    threshold: float
    higher_is_better: bool

    @property
    def regressed(self) -> bool:
        """True when the change exceeds the allowed threshold."""
        return self.change > self.threshold

    def format(self) -> str:
        """One readable diff line for the gate report."""
        arrow = "REGRESSION" if self.regressed else "ok"
        direction = "higher-is-better" if self.higher_is_better else ""
        change_pct = (
            f"{self.change * 100.0:+.1f}%"
            if math.isfinite(self.change)
            else "+inf%"
        )
        return (
            f"  {self.trial_id} ({self.label}) {self.metric}: "
            f"baseline {self.baseline:.6g} -> current {self.current:.6g} "
            f"({change_pct}, limit {self.threshold * 100.0:+.1f}%)"
            f"{' ' + direction if direction else ''} {arrow}"
        )


@dataclass
class GateReport:
    """Everything one gate evaluation decided, renderable as text."""

    diffs: List[MetricDiff] = dataclass_field(default_factory=list)
    new_trials: List[Tuple[str, str, str]] = dataclass_field(
        default_factory=list
    )
    failed_trials: List[Tuple[str, str, str, str]] = dataclass_field(
        default_factory=list
    )
    experiments: List[str] = dataclass_field(default_factory=list)
    evaluation_s: float = 0.0

    @property
    def regressions(self) -> List[MetricDiff]:
        """Only the diffs that exceeded their threshold."""
        return [d for d in self.diffs if d.regressed]

    @property
    def passed(self) -> bool:
        """True when no metric regressed and no trial stopped running."""
        return not self.regressions and not self.failed_trials

    def render(self) -> str:
        """The readable gate report (per-metric diffs + verdict)."""
        lines = [f"xpr gate: experiments {', '.join(self.experiments) or '-'}"]
        by_exp: Dict[str, List[MetricDiff]] = {}
        for diff in self.diffs:
            by_exp.setdefault(diff.experiment, []).append(diff)
        for exp in sorted(by_exp):
            lines.append(f"{exp}:")
            lines.extend(d.format() for d in by_exp[exp])
        for exp, trial_id, label in self.new_trials:
            lines.append(
                f"  {trial_id} ({label}) [{exp}]: new trial, no baseline "
                "yet — recorded, not gated"
            )
        for exp, trial_id, label, error in self.failed_trials:
            lines.append(
                f"  {trial_id} ({label}) [{exp}]: latest run FAILED — "
                f"{error}"
            )
        n_reg = len(self.regressions)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"gate: {verdict} — {len(self.diffs)} metric(s) compared, "
            f"{n_reg} regression(s), {len(self.failed_trials)} failed "
            f"trial(s), {len(self.new_trials)} new trial(s)"
        )
        return "\n".join(lines) + "\n"


def trial_label(params: Mapping[str, object]) -> str:
    """Human-readable trial summary from its stored parameters."""
    if "mode" in params:
        parts = [f"mode={params['mode']}"]
        for key in ("n", "k"):
            if key in params:
                parts.append(f"{key}={params[key]}")
        if params.get("mode") == "dist":
            parts.append(f"{params.get('transport')}/p{params.get('ranks')}")
            if params.get("overlap"):
                parts.append("overlap")
        return " ".join(parts)
    if "bench" in params:
        return f"bench={params['bench']} config={params.get('config')}"
    return " ".join(f"{k}={v}" for k, v in sorted(params.items())[:4])


def _grouped(records: List[TrialRecord]) -> Dict[str, List[TrialRecord]]:
    """Records per trial id, preserving first-seen trial order."""
    out: Dict[str, List[TrialRecord]] = {}
    for record in records:
        out.setdefault(record.trial_id, []).append(record)
    return out


def _change(baseline: float, current: float, higher_better: bool) -> float:
    """Signed fractional regression (positive = worse)."""
    if baseline == 0.0:
        if current == baseline:
            return 0.0
        worse = current > 0.0 if not higher_better else current < 0.0
        return math.inf if worse else -1.0
    raw = (current - baseline) / abs(baseline)
    return -raw if higher_better else raw


def evaluate_gate(
    store: TrajectoryStore,
    experiment: Optional[str] = None,
    config: Optional[GateConfig] = None,
    clock: Optional[Clock] = None,
) -> GateReport:
    """Gate one experiment (or all of them) against the stored trajectory."""
    config = config or GateConfig()
    clock = clock or MonotonicClock()
    t0 = clock.now()
    experiments = (
        [experiment] if experiment is not None else store.experiments()
    )
    report = GateReport(experiments=list(experiments))
    records = store.records()
    for exp in experiments:
        exp_records = [r for r in records if r.experiment == exp]
        for trial_id, history in _grouped(exp_records).items():
            current = history[-1]
            label = trial_label(current.params)
            if current.status != "ok":
                report.failed_trials.append(
                    (exp, trial_id, label, current.error or current.status)
                )
                continue
            prior_ok = [r for r in history[:-1] if r.status == "ok"]
            if not prior_ok:
                report.new_trials.append((exp, trial_id, label))
                continue
            window = prior_ok[-config.history_n:]
            for metric in sorted(current.metrics):
                values = [
                    r.metrics[metric]
                    for r in window
                    if metric in r.metrics
                ]
                if not values:
                    continue  # metric is new; next run gates it
                baseline = float(statistics.median(values))
                current_value = float(current.metrics[metric])
                higher_better = metric_direction(metric)
                report.diffs.append(
                    MetricDiff(
                        experiment=exp,
                        trial_id=trial_id,
                        label=label,
                        metric=metric,
                        baseline=baseline,
                        current=current_value,
                        change=_change(
                            baseline, current_value, higher_better
                        ),
                        threshold=config.threshold_for(metric),
                        higher_is_better=higher_better,
                    )
                )
    report.evaluation_s = clock.now() - t0
    return report
