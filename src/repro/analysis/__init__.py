"""Experiment drivers, reports, and the project lint/concurrency tooling.

Two halves share this package: the paper-facing analysis (experiment
drivers, table rendering, paper-vs-measured reports) re-exported below
and printed by the ``benchmarks/bench_*.py`` scripts, one per paper
table or figure; and the code-facing analysis — the ``python -m repro
lint`` engine (:mod:`repro.analysis.engine`, rules in
:mod:`repro.analysis.rules`) plus the runtime lock watcher
(:mod:`repro.analysis.lockwatch`), which are imported explicitly by the
CLI and the concurrency tests rather than re-exported here (linting
should not import numpy-heavy drivers).
"""

from repro.analysis.tables import format_table
from repro.analysis.report import ComparisonRow, ExperimentReport
from repro.analysis.sweeps import TradeoffPoint, error_compression_sweep, pareto_front
from repro.analysis import experiments

__all__ = [
    "format_table",
    "ComparisonRow",
    "ExperimentReport",
    "experiments",
    "TradeoffPoint",
    "error_compression_sweep",
    "pareto_front",
]
