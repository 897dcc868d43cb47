"""``python -m repro xpr`` — run grids, render reports, gate regressions.

Verbs::

    python -m repro xpr run --experiment ref-quick   # drain a grid
    python -m repro xpr report [--format html]       # trend tables
    python -m repro xpr gate [--experiment NAME]     # enforce thresholds
    python -m repro xpr list                         # known experiments

All verbs share ``--store`` (default ``TRAJECTORY.jsonl`` in the current
directory — the committed baseline at the repository root).  Exit codes
follow the main CLI contract: 0 on success, 1 when the gate fails or a
trial fails, 2 for bad arguments/configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError
from repro.xpr.gate import GateConfig, evaluate_gate
from repro.xpr.grid import expand_experiment, experiment_names
from repro.xpr.report import TrajectoryReport
from repro.xpr.runner import Runner, record_outcomes
from repro.xpr.store import TrajectoryStore

#: Default trajectory path: the committed baseline at the repo root.
DEFAULT_STORE = "TRAJECTORY.jsonl"


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE,
        help=f"trajectory JSONL path (default {DEFAULT_STORE})",
    )


def build_parser() -> argparse.ArgumentParser:
    """The ``repro xpr`` sub-command parser."""
    parser = argparse.ArgumentParser(
        prog="repro xpr",
        description="Experiment-grid orchestrator: run parameter sweeps, "
        "record the perf trajectory, gate regressions.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="expand an experiment and drain it")
    run.add_argument(
        "--experiment",
        required=True,
        help=f"registered experiment name (known: {experiment_names()})",
    )
    _add_store_option(run)
    run.add_argument(
        "--workers", type=int, default=1,
        help="pull-worker threads draining the trial queue (default 1; "
        "trials themselves may spawn processes)",
    )
    run.add_argument(
        "--timeout", type=float, default=600.0,
        help="per-trial timeout in seconds (default 600)",
    )
    run.add_argument(
        "--dry-run", action="store_true",
        help="print the expanded trial list without executing",
    )

    report = sub.add_parser("report", help="render the trend tables")
    _add_store_option(report)
    report.add_argument(
        "--experiment", default=None,
        help="restrict to one experiment (default: all)",
    )
    report.add_argument(
        "--format", choices=["md", "html"], default="md",
        help="output format (default md)",
    )
    report.add_argument(
        "--output", default=None,
        help="write to this path instead of stdout",
    )

    gate = sub.add_parser("gate", help="compare the latest run to history")
    _add_store_option(gate)
    gate.add_argument(
        "--experiment", default=None,
        help="restrict to one experiment (default: all)",
    )
    gate.add_argument(
        "--threshold", type=float, default=None,
        help="regression limit for structural metrics as a fraction "
        "(default 0.10)",
    )
    gate.add_argument(
        "--timing-threshold", type=float, default=None,
        help="regression limit for wall-clock-derived metrics "
        "(default 0.50; widen for cross-machine comparisons)",
    )
    gate.add_argument(
        "--history", type=int, default=None,
        help="baseline = median of up to this many prior runs (default 5)",
    )

    sub.add_parser("list", help="print the registered experiments")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    trials = expand_experiment(args.experiment)
    if args.dry_run:
        for spec in trials:
            print(f"{spec.trial_id}  {spec.label()}")
        print(f"{len(trials)} trial(s)")
        return 0
    runner = Runner(workers=args.workers, timeout_s=args.timeout)
    outcomes = runner.run(trials)
    store = TrajectoryStore(args.store)
    record_outcomes(store, outcomes)
    failed = 0
    for outcome in outcomes:
        status = outcome.status
        detail = (
            f"{outcome.elapsed_s:.3f} s"
            if outcome.ok
            else (outcome.error or status)
        )
        retried = " (retried)" if outcome.attempts > 1 else ""
        print(
            f"{outcome.spec.trial_id}  {outcome.spec.label():32s} "
            f"{status:7s} {detail}{retried}"
        )
        failed += 0 if outcome.ok else 1
    print(
        f"{len(outcomes) - failed}/{len(outcomes)} trial(s) ok -> "
        f"{store.path}"
    )
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = TrajectoryReport(
        TrajectoryStore(args.store), experiment=args.experiment
    )
    rendered = (
        report.to_html() if args.format == "html" else report.to_markdown()
    )
    if args.output:
        Path(args.output).write_text(rendered)
        print(f"report written to {args.output}")
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    config = GateConfig()
    if args.threshold is not None:
        config.default_threshold = args.threshold
    if args.timing_threshold is not None:
        config.timing_threshold = args.timing_threshold
    if args.history is not None:
        config.history_n = args.history
    report = evaluate_gate(
        TrajectoryStore(args.store), experiment=args.experiment,
        config=config,
    )
    sys.stdout.write(report.render())
    return 0 if report.passed else 1


def xpr_main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``xpr`` verb; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "report":
            return _cmd_report(args)
        if args.verb == "gate":
            return _cmd_gate(args)
        for name in experiment_names():
            trials = expand_experiment(name)
            print(f"{name}: {len(trials)} trial(s)")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
