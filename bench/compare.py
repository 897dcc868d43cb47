"""Compare two sets of benchmark results, end-to-end metric by metric.

    python3 bench/compare.py A B

``A`` (the base) and ``B`` are directories ``run.py --out`` wrote untraced
results into, one or more runs (seeds) per workload.  Each row gives both
sides' median and quartiles over their runs, the ratio B/A, how much worse B
is, and a verdict:

``ok``          B's median is not worse than A's by more than the metric's bound;
``regressed``   it is;
``unresolved``  A's own runs spread (q3 - q1, over the median) wider than the
                bound, so the comparison cannot tell, unless every run of B
                reads better than every run of A.

Exits 0 if and only if nothing regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """``{workload: {metric: [value per run]}}`` of the untraced results."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema") != 1 or not doc["valid"] or doc["trace"]:
            continue
        for name, metric in doc["metrics"].items():
            runs[doc["workload"]][name].append(metric["value"])
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list, change: list, better: str, bound: float) -> tuple:
    """``(worse_by, spread, verdict)``; ``worse_by`` is the share of the base
    median by which the change's median is worse (negative: better)."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = quartiles(base)
    worse_by = sign * (quartiles(change)[1] - median) / median
    spread = (q3 - q1) / median
    if spread > bound:
        all_better = max(sign * v for v in change) < min(sign * v for v in base)
        return worse_by, spread, "ok" if all_better else "unresolved"
    return worse_by, spread, "regressed" if worse_by > bound else "ok"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    regressed = 0
    for workload in sorted(set(base) & set(change)):
        print(f"# {workload}: A {argv[0]}, B {argv[1]}")
        print(
            f"{'metric':14s} {'unit':6s} {'A median [q1, q3] (runs)':>44s} "
            f"{'B median [q1, q3] (runs)':>44s} {'B/A':>8s} {'worse by':>9s} "
            f"{'A spread':>9s} {'bound':>6s}  verdict"
        )
        for entry in metrics:
            name = entry["name"]
            a, b = base[workload].get(name), change[workload].get(name)
            if not a or not b:
                continue
            worse_by, spread, word = verdict(a, b, entry["better"], entry["bound"])
            regressed += word == "regressed"
            cells = []
            for side in (a, b):
                q1, median, q3 = quartiles(side)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] ({len(side)})")
            print(
                f"{name:14s} {entry['unit']:6s} {cells[0]:>44s} {cells[1]:>44s} "
                f"{quartiles(b)[1] / quartiles(a)[1]:8.4f} {worse_by:+9.2%} "
                f"{spread:9.2%} {entry['bound']:6.3f}  {word}"
            )
    print("regressed" if regressed else "nothing regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
