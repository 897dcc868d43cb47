"""repro.xpr — experiment-grid orchestrator with a regression-gated trajectory.

The subsystem that watches the benchmarks: declare a parameter grid
(:mod:`~repro.xpr.grid`), drain it through pull workers
(:mod:`~repro.xpr.runner`), land every trial in the append-only
trajectory store (:mod:`~repro.xpr.store`), render trend reports
(:mod:`~repro.xpr.report`), and fail the build when a metric regresses
past its threshold (:mod:`~repro.xpr.gate`).  Driven by
``python -m repro xpr run|report|gate|list``.
"""

from __future__ import annotations

from repro.xpr.gate import (
    GateConfig,
    GateReport,
    MetricDiff,
    evaluate_gate,
    trial_label,
)
from repro.xpr.grid import (
    EXPERIMENTS,
    ExperimentGrid,
    TrialSpec,
    content_id,
    define_experiment,
    expand_experiment,
    experiment_names,
)
from repro.xpr.registry import BenchRegistry, default_registry
from repro.xpr.report import TrajectoryReport
from repro.xpr.runner import (
    Runner,
    TrialOutcome,
    TrialTimeoutError,
    record_outcomes,
)
from repro.xpr.store import TrajectoryStore, TrialRecord, git_revision

__all__ = [
    "EXPERIMENTS",
    "BenchRegistry",
    "ExperimentGrid",
    "GateConfig",
    "GateReport",
    "MetricDiff",
    "Runner",
    "TrajectoryReport",
    "TrajectoryStore",
    "TrialOutcome",
    "TrialRecord",
    "TrialSpec",
    "TrialTimeoutError",
    "content_id",
    "default_registry",
    "define_experiment",
    "evaluate_gate",
    "expand_experiment",
    "experiment_names",
    "git_revision",
    "record_outcomes",
    "trial_label",
]
