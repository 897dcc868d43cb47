"""The repository's benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 bench/run.py --smoke               # small shapes, whole benchmark < 30 s

With ``--workload`` this interpreter runs that workload once and prints, as its
last line, the JSON object ``BENCHMARK.json``'s contract asks for: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without it, each workload gets a fresh interpreter of its own, one at a time.
See ``bench/README.md`` for what is measured and why.
"""

from __future__ import annotations

import os

# One BLAS thread per process, decided before numpy loads; rank processes
# inherit it.  The load is sized in processes and threads, not BLAS threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# numpy asks the kernel for huge pages behind every large array.  When memory
# is fragmented each first touch then waits for compaction: the same set-up of
# serial_flat_n128 took 1.4 s or 5 s from one launch to the next.  Without the
# request it takes 1.4 to 2.2 s, and warm operations, which reuse their pages,
# take the same either way.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

#: set-up is measured this many times per run (this process and fresh
#: interpreters that only set up), and the median reported
SETUP_SAMPLES = 3
SMOKE_SECONDS = 1.0


def catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "loadavg_1m": os.getloadavg()[0],
        "git_rev": git_rev(),
        "seed": seed,
    }


def child_command(args, workload: str, *extra: str) -> list:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")
    return command + list(extra)


def setup_samples(args, own: float) -> list:
    """This process's set-up time plus that of fresh interpreters that set the
    same workload up and exit, run one at a time."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            child_command(args, args.workload, "--setup-only"),
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_one(args) -> int:
    spec = catalogue()
    run = workloads.Run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.out
    )
    if args.setup_only:
        print(json.dumps({"setup_s": workloads.execute(run, setup_only=True)}))
        return 0

    env = environment(args.seed)
    busy = workloads.build(run).busy
    pinned = all(value == "1" for value in env["threads"].values())
    result_path = args.out / f"{args.workload}.s{args.seed}{'.traced' if args.trace else ''}.json"
    args.out.mkdir(parents=True, exist_ok=True)
    if busy > env["nproc"] or not pinned:
        reason = (
            f"{args.workload} keeps {busy} processes or threads busy with BLAS "
            f"threads {env['threads']} on {env['nproc']} cores; not measured"
        )
        with open(result_path, "w") as fh:
            json.dump({"schema": 1, "workload": args.workload, "trace": args.trace,
                       "valid": False, "reason": reason, "env": env}, fh, indent=1)
        print(f"invalid: {reason}", file=sys.stderr)
        return 2

    own_setup_s = workloads.execute(run)
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    run.value("peak_rss_mb", usage / 1024.0)
    if run.tracer is None:
        # each set-up arrives already divided by the slowdown sampled after it
        run.timing("setup_s", setup_samples(args, own_setup_s), final=True)
    elif "op_s" in run.metrics:
        # the same operation timed with the wrappers on; over the untraced
        # run's op_s it is the tracing overhead
        run.metrics["trace.op_s"] = dict(run.metrics["op_s"])
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(run.metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    # Compute-bound times are reported as the reference box would have measured
    # them: see workloads.MachineSpeed.
    slowdown = run.speed.slowdown()
    for name, metric in run.metrics.items():
        scale = {"s": 1.0 / slowdown, "MB/s": slowdown}.get(units[name])
        if metric.pop("final") or scale is None:
            continue
        for key in ("value", "q1", "q3"):
            if metric.get(key) is not None:
                metric[key] *= scale

    section = "per_layer" if run.tracer is not None else "end_to_end"
    reported = {}
    notes = run.tracer.notes if run.tracer is not None else []
    for entry in spec[section]:
        name = entry["name"]
        if name in run.metrics:
            reported[name] = dict(run.metrics[name], unit=entry["unit"])
        elif section == "end_to_end":
            run.fail(name, "end-to-end metric not measured")

    failed = len({failure["op"] for failure in run.failures})
    result = {
        "schema": 1,
        "workload": args.workload,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "valid": True,
        "env": env,
        "machine_slowdown": slowdown,
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "failures": run.failures,
        "notes": notes,
        "metrics": reported,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)
    if run.tracer is not None:
        run.tracer.dump(args.out / f"{args.workload}.s{args.seed}.trace.json")

    report(args, result, spec[section])
    return 0 if result["correct"] else 1


def report(args, result: dict, section: list) -> None:
    """Print every metric by name, the notes, the failures and, last, the
    contract's line."""
    reported = result["metrics"]
    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"machine_slowdown={result['machine_slowdown']:.4f} "
        "(compute-bound times are divided by it)"
    )
    for name, metric in reported.items():
        if metric["value"] is None:
            print(f"{name:34s} {'null':>14s} {metric['unit']}")
            continue
        spread = (
            f"  n={metric['n']} q1={metric['q1']:.6g} q3={metric['q3']:.6g}"
            if "n" in metric else ""
        )
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}{spread}")
    for note in result["notes"]:
        print(f"note: {note}")
    for failure in result["failures"]:
        print(f"FAILED {failure['workload']} {failure['op']}: {failure['reason']}")
    # The contract's line carries every metric of the section as a number: a
    # layer off this workload's path did no work and reads 0, and so does a
    # metric whose trace target is gone (null, with a note, everywhere else).
    print(json.dumps({
        "correct": result["correct"],
        "attempted": max(1, result["attempted"]),
        "failed": result["failed"],
        "metrics": {
            entry["name"]: {
                "value": reported.get(entry["name"], {}).get("value") or 0.0,
                "unit": entry["unit"],
            }
            for entry in section
        },
    }))


def run_all(args) -> int:
    """Each workload untraced, then traced, each in a fresh interpreter."""
    status = 0
    overhead = {}
    for name in workloads.WORKLOADS:
        op_s = {}
        for trace in (0, 1):
            done = subprocess.run(
                child_command(args, name, "--trace", str(trace)),
                stdout=subprocess.PIPE, text=True,
            )
            sys.stdout.write(done.stdout)
            sys.stdout.flush()
            if done.returncode != 0:
                status = 1
                continue
            metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
            op_s[trace] = metrics["trace.op_s" if trace else "op_s"]["value"]
        if len(op_s) == 2:
            overhead[name] = op_s[1] / op_s[0]
    print("# tracing overhead: traced op_s / untraced op_s")
    for name, ratio in overhead.items():
        print(f"{name:34s} {ratio:14.4f} ratio")
    print("ok" if status == 0 else "FAILED")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="n=32/k=8 everywhere, ~1 s runs")
    parser.add_argument("--out", type=Path, default=BENCH / "results")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(catalogue()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
