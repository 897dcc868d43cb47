"""Real-transport dist-run benchmark: wall time + wire bytes vs Eq 6.

Standalone script (not a pytest-benchmark module): runs the full SPMD
pipeline at n=32, k=8, flat:2 over P in {1, 2, 4} ranks on both real
transports —

- ``local`` — loopback queues, one thread per rank (transport overhead
  floor);
- ``tcp``   — one OS process per rank, length-prefixed frames over
  localhost sockets (the real wire);

verifies every run bitwise against ``run_serial``, takes the median of 3
runs each, and writes ``BENCH_dist.json`` at the repository root with the
measured exchange wire bytes, the exact Eq 6 value-byte prediction, and
their ratio (the acceptance bar is ratio <= 1.05 at this configuration).

Zero-copy accounting columns: every configuration records the per-rank
:class:`~repro.util.copytrack.CopyLedger` totals (``copied_wire_bytes``
must be 0 on the TCP transport for float64 — the data plane's counted
invariant; loopback rank threads share one process ledger, so their
totals overlap), and a ``serialization`` section reports the codec's
encode throughput and bytes-copied-per-field at this shape (the deep
version of that measurement lives in ``bench_serialize.py``).

With ``--overlap`` the sweep additionally runs every configuration in
streamed (overlap) mode — an on/off A/B — and records per-config
``exchange_hidden_s`` / ``exchange_send_s`` / ``hidden_frac``: the wire
send time that completed while compute was still running, the stream's
total wire send time, and their ratio (median over repeats).  A headline
A/B section then reruns 4-rank barrier vs streamed on a *dense* field
(every sub-domain active, so every rank streams a full chunk share).
The acceptance bar is ``hidden_frac >= 0.25`` there at 4 TCP ranks: at
least a quarter of the exchange's send wall-time hides behind compute.

Usage::

    PYTHONPATH=src python benchmarks/bench_dist.py \
        [--overlap] [--repeats N] [--output PATH] [--quick]

``--quick`` shrinks the sweep to the local transport at P in {1, 2}
(same schema, no TCP process spawns) for smoke runs.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.distributed_runner import DistributedLowCommConvolution
from repro.core.policy import parse_policy
from repro.dist.launcher import default_spectrum, dist_run
from repro.dist.worker import DistConfig, build_pipeline, composite_field
from repro.octree.compress import CompressedField
from repro.octree.sampling import build_flat_pattern
from repro.octree.serialize import serialize_compressed, serialize_segments
from repro.util import copytrack
from repro.xpr.registry import bench_argument_parser
from repro.xpr.store import bench_envelope, write_bench

N, K, SIGMA, POLICY, REPEATS, SEED = 32, 8, 2.0, "flat:2", 3, 0
RANK_COUNTS = (1, 2, 4)
TRANSPORTS = ("local", "tcp")
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_dist.json"


def _run_config(config, field, spectrum, serial, repeats=REPEATS):
    times, reports = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = dist_run(config, field=field, spectrum=spectrum)
        times.append(time.perf_counter() - t0)
        reports.append(report)
        if not np.array_equal(report.approx, serial.approx):
            raise AssertionError(
                f"{config.transport} P={config.num_ranks} "
                f"overlap={config.overlap}: not bitwise identical to "
                "run_serial"
            )
    return statistics.median(times), times, reports


def _hidden_stats(reports) -> dict:
    """Job-wide overlap accounting, median over repeats by hidden_frac.

    Per run: sum the per-rank send time the stream completed before that
    rank's compute ended (hidden) and the stream's total send time; the
    per-run fraction is hidden/total.  The median run guards against the
    occasional scheduling outlier where the pump thread starves.
    """
    runs = []
    for report in reports:
        ranks = report.rank_results.values()
        hidden = sum(r.exchange_hidden_s for r in ranks)
        send = sum(r.exchange_send_s for r in ranks)
        runs.append(
            {
                "exchange_hidden_s": hidden,
                "exchange_send_s": send,
                "hidden_frac": hidden / send if send else 0.0,
            }
        )
    runs.sort(key=lambda s: s["hidden_frac"])
    median = dict(runs[len(runs) // 2])
    median["hidden_frac_runs"] = [s["hidden_frac"] for s in runs]
    return median


def _copy_columns(report) -> dict:
    """Summed per-rank copy-ledger columns for one run's report."""
    ranks = report.rank_results.values()
    return {
        "copied_wire_bytes": sum(
            r.copies.get("wire_bytes", 0) for r in ranks
        ),
        "copied_total_bytes": sum(
            r.copies.get("total_bytes", 0) for r in ranks
        ),
    }


def _serialization_section() -> dict:
    """Codec throughput + bytes-copied-per-field at the bench shape."""
    pattern = build_flat_pattern(N, K, (8, 8, 8), r=2)
    rng = np.random.default_rng(SEED)
    field = CompressedField.from_dense(
        rng.standard_normal((N, N, N)), pattern
    )
    size = len(serialize_compressed(field))
    iters = 500
    section = {"payload_bytes": size}
    for name, fn in (
        ("segments", lambda: serialize_segments(field)),
        ("contiguous", lambda: serialize_compressed(field)),
    ):
        fn()  # warm the pattern's metadata cache outside the clock
        t0 = time.perf_counter()
        for _ in range(iters):
            fn()
        elapsed = time.perf_counter() - t0
        copytrack.reset()
        fn()
        copied = copytrack.ledger().snapshot()["total_bytes"]
        copytrack.reset()
        section[name] = {
            "encode_mb_per_s": size * iters / elapsed / 1e6,
            "bytes_copied_per_field": copied,
        }
    return section


def main(
    overlap: bool = False,
    repeats: int = REPEATS,
    output: Path | str = DEFAULT_OUTPUT,
    quick: bool = False,
) -> dict:
    transports = ("local",) if quick else TRANSPORTS
    rank_counts = (1, 2) if quick else RANK_COUNTS
    headline = "local_p2" if quick else "tcp_p4"
    base = DistConfig(n=N, k=K, sigma=SIGMA, policy=POLICY, seed=SEED)
    field = composite_field(N, SEED)
    spectrum = default_spectrum(base)
    serial = build_pipeline(base, spectrum).run_serial(field)

    modes = (False, True) if overlap else (False,)
    results = {}
    for transport in transports:
        for ranks in rank_counts:
            for streamed in modes:
                config = DistConfig(
                    n=N,
                    k=K,
                    sigma=SIGMA,
                    policy=POLICY,
                    seed=SEED,
                    num_ranks=ranks,
                    transport=transport,
                    overlap=streamed,
                )
                median, times, reports = _run_config(
                    config, field, spectrum, serial, repeats
                )
                report = reports[-1]
                name = f"{transport}_p{ranks}" + ("_overlap" if streamed else "")
                results[name] = {
                    "median_s": median,
                    "times_s": times,
                    "exchange_wire_bytes": report.exchange_wire_bytes,
                    "predicted_value_bytes": report.predicted_value_bytes,
                    "naive_eq6_bytes": report.naive_eq6_bytes,
                    "wire_over_model": report.wire_over_model,
                    "max_compute_s": report.max_compute_s,
                    "max_exchange_s": report.max_exchange_s,
                    "bitwise_vs_serial": True,
                    **_copy_columns(report),
                }
                extra = ""
                if streamed:
                    stats = _hidden_stats(reports)
                    results[name].update(stats)
                    extra = f"  hidden {stats['hidden_frac']:.2f}"
                print(
                    f"{name:18s} median {median:6.3f} s  "
                    f"wire {report.exchange_wire_bytes:>9d} B  "
                    f"model {report.predicted_value_bytes:>9d} B  "
                    f"ratio {report.wire_over_model:.4f}{extra}"
                )

    sim_ranks = max(rank_counts)
    sim = DistributedLowCommConvolution(
        N, K, spectrum, parse_policy(POLICY)
    ).run(field, sim_ranks)

    top = max(rank_counts)
    report = bench_envelope(
        "dist",
        n=N,
        k=K,
        repeats=repeats,
        results=results,
        workers_used=top,
        sigma=SIGMA,
        policy=POLICY,
        serialization=_serialization_section(),
        speedup={
            f"{t}_p{top}_vs_p1": results[f"{t}_p1"]["median_s"]
            / results[f"{t}_p{top}"]["median_s"]
            for t in transports
        },
        crosscheck={
            "simulated_allgather_bytes": sim.comm_bytes,
            "simulated_allgather_rounds": sim.comm_rounds,
            f"predicted_value_bytes_p{sim_ranks}": results[headline][
                "predicted_value_bytes"
            ],
        },
    )
    if overlap:
        # Headline A/B on a dense balanced field: every rank streams a
        # full 16-chunk share — the load the overlap path is built for.
        # (The composite-field sweep above stays informational: 56 of its
        # 64 sub-domains are zero, so half the ranks have nothing to
        # stream and job-wide hiding there is a scheduling lottery.)
        rng = np.random.default_rng(SEED)
        dense = rng.standard_normal((N, N, N))
        dense_serial = build_pipeline(base, spectrum).run_serial(dense)
        section = {
            "field": "dense standard-normal (all sub-domains active)",
            "window": DistConfig(n=N, k=K).window,
            "hidden_frac_bar": 0.25,
        }
        for transport in transports:
            kwargs = dict(
                n=N,
                k=K,
                sigma=SIGMA,
                policy=POLICY,
                seed=SEED,
                num_ranks=top,
                transport=transport,
            )
            med_b, _, _ = _run_config(
                DistConfig(**kwargs), dense, spectrum, dense_serial, repeats
            )
            med_s, _, reports_s = _run_config(
                DistConfig(overlap=True, **kwargs),
                dense,
                spectrum,
                dense_serial,
                repeats,
            )
            section[f"{transport}_p{top}"] = {
                "barrier_median_s": med_b,
                "overlap_median_s": med_s,
                **_hidden_stats(reports_s),
            }
        report["overlap"] = section
    out = write_bench(report, output)
    ratio = results[headline]["wire_over_model"]
    print(
        f"\n{headline} wire/model {ratio:.4f} (bar: <= 1.05), "
        f"sim allgather == model: "
        f"{sim.comm_bytes == results[headline]['predicted_value_bytes']}"
        f" -> {out.name}"
    )
    if overlap:
        frac = report["overlap"][headline]["hidden_frac"]
        print(
            f"{headline} streamed exchange (dense field): {frac:.1%} of "
            f"send wall-time hidden behind compute (bar: >= 25%)"
        )
        if not quick and frac < 0.25:
            raise AssertionError(
                f"overlap bar missed: hidden_frac {frac:.3f} < 0.25"
            )
    return report


if __name__ == "__main__":
    parser = bench_argument_parser(
        __doc__, default_output=str(DEFAULT_OUTPUT), default_repeats=REPEATS
    )
    parser.add_argument(
        "--overlap",
        action="store_true",
        help="also run every configuration in streamed (overlap) mode "
        "and record exchange-hidden-time A/B numbers",
    )
    args = parser.parse_args()
    main(
        overlap=args.overlap,
        repeats=args.repeats,
        output=args.output,
        quick=args.quick,
    )
