"""Command-line interface: run, serve and lint the low-communication pipeline.

Usage::

    python -m repro pipeline --n 64 --k 16
                                    # run the end-to-end pipeline itself
    python -m repro serve-bench --requests 16
                                    # batched serving vs naive baseline
    python -m repro serve --backend pool://file:///tmp/rdv --ranks 4
                                    # dist-backed serving on a standing pool
    python -m repro dist-run --ranks 4 --transport tcp
                                    # real SPMD run: the way onto many cores
    python -m repro lint src tests  # project-specific static analysis
    python -m repro pool up --rendezvous file:///tmp/rdv --ranks 4
                                    # standing rank pool (see pool --help)

The paper's tables and figures are printed by their benchmark scripts:
``PYTHONPATH=src python -m pytest benchmarks -q -s --benchmark-disable``.

Exit codes: 0 on success; 1 when ``lint`` reports findings, when an
audit fails — ``dist-run``, ``serve-bench`` or ``serve`` printing a
``bitwise identical`` row that is ``False`` (or ``serve`` a failed
request) — or when a standing pool fails (a :class:`~repro.errors.PoolError`,
e.g. an agent that cannot be reached); 2 on bad arguments or
configuration errors (argparse errors also exit 2), with a one-line
message on stderr — never a traceback for a user mistake.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Tuple

from repro.analysis.tables import format_table
from repro.dist.worker import BARRIER_FAIL_STAGES
from repro.errors import ConfigurationError, PoolError, ReproError


def _pipeline(args: argparse.Namespace) -> None:
    """Run the end-to-end pipeline once and report timing + error."""
    import numpy as np

    from repro.core.pipeline import LowCommConvolution3D
    from repro.core.policy import parse_policy
    from repro.core.reference import reference_convolve
    from repro.dist.worker import composite_field
    from repro.kernels.gaussian import GaussianKernel

    n, k = args.n, args.k
    policy = parse_policy(args.policy)
    spectrum = GaussianKernel(n=n, sigma=args.sigma).spectrum()
    field = composite_field(n, args.seed)
    pipeline = LowCommConvolution3D(n, k, spectrum, policy)
    result = pipeline.run_serial(field)
    exact = reference_convolve(field, spectrum)
    err = float(np.max(np.abs(result.approx - exact)))
    rel = float(np.linalg.norm(result.approx - exact) / np.linalg.norm(exact))
    print(
        format_table(
            ["quantity", "value"],
            [
                ["n / k", f"{n} / {k}"],
                ["policy", args.policy],
                ["sub-domains convolved", result.num_subdomains],
                ["total samples", result.total_samples],
                ["compression ratio", f"{result.compression_ratio:.1f}x"],
                ["elapsed (s)", f"{result.elapsed_s:.3f}"],
                ["max abs error vs dense", f"{err:.3e}"],
                ["relative L2 error", f"{rel:.3e}"],
            ],
            title="pipeline run",
        )
    )


def _dist_run(args: argparse.Namespace) -> int:
    """Run the pipeline as a real SPMD job; exit 1 unless bitwise serial."""
    import numpy as np

    from repro.dist.launcher import dist_run
    from repro.dist.worker import DistConfig, build_pipeline, composite_field

    config = DistConfig(
        n=args.n,
        k=args.k,
        sigma=args.sigma,
        policy=args.policy,
        num_ranks=args.ranks,
        transport=args.transport,
        seed=args.seed,
        overlap=args.overlap,
        window=args.window,
    )
    field = composite_field(config.n, config.seed)
    report = dist_run(config, field=field)
    serial = build_pipeline(config).run_serial(field)
    bitwise = bool(np.array_equal(report.approx, serial.approx))
    rows = [
        ["transport / ranks", f"{config.transport} / {config.num_ranks}"],
        ["n / k / policy", f"{config.n} / {config.k} / {config.policy}"],
        [
            "exchange mode",
            f"streamed (window {config.window})" if config.overlap else "barrier",
        ],
        ["bitwise identical to run_serial", bitwise],
        ["failed ranks", report.failed_ranks or "none"],
        ["recovered from checkpoints", report.recovered],
        ["exchange wire bytes (measured)", report.exchange_wire_bytes],
        ["exchange value bytes (per-destination exact)", report.predicted_value_bytes],
        ["exchange value bytes (Eq 6 allgather)", report.eq6_value_bytes],
        ["wire / model ratio", f"{report.wire_over_model:.4f}"],
        ["input wire bytes (measured)", report.input_wire_bytes],
        ["input block bytes (exact)", report.predicted_input_bytes],
        ["slowest rank compute (s)", f"{report.max_compute_s:.3f}"],
        ["slowest rank exchange (s)", f"{report.max_exchange_s:.3f}"],
        ["exchange hidden behind compute (s)", f"{report.max_exchange_hidden_s:.3f}"],
        ["elapsed (s)", f"{report.elapsed_s:.3f}"],
    ]
    print(format_table(["quantity", "value"], rows, title="dist-run"))
    return 0 if bitwise else 1


def _lint(args: argparse.Namespace) -> int:
    """Run the repro lint rules; exit 0 clean, 1 with findings."""
    from repro.analysis.engine import LintEngine

    engine = LintEngine()
    findings = engine.run(args.paths or ["src"])
    if args.format == "json":
        sys.stdout.write(engine.to_json(findings))
    else:
        sys.stdout.write(
            engine.to_text(findings, timings=getattr(args, "timing", False))
        )
    return 1 if any(f.severity == "error" for f in findings) else 0


def _serve_bench(args: argparse.Namespace) -> int:
    """Audit batched serving against the naive per-request baseline.

    Prints the naive / batched (/ pool-backed, with ``--pool``) A/B and
    exits 1 when any served result differs bitwise from the naive one.
    """
    import contextlib

    from repro.pool.pool import RankPool, private_pool
    from repro.serve.loadgen import LoadSpec, run_serve_benchmark
    from repro.serve.server import ServerConfig

    spec = LoadSpec(
        n=args.n,
        k=args.k,
        num_requests=args.requests,
        num_kernels=args.kernels,
        sigma=args.sigma,
        policy=args.policy,
        seed=args.seed,
    )
    config = ServerConfig(
        n=args.n,
        k=args.k,
        max_batch_size=args.max_batch_size,
        max_wait_s=args.max_wait,
    )
    with contextlib.ExitStack() as stack:
        pool = None
        if args.pool == "auto":
            pool = stack.enter_context(private_pool(args.pool_ranks))
        elif args.pool:
            pool = RankPool(args.pool)
            pool.connect(args.pool_ranks)
            stack.callback(pool.disconnect)
        report = run_serve_benchmark(spec, config, pool=pool)
    rows = [
        ["requests (kernels)", f"{spec.num_requests} ({spec.num_kernels})"],
        ["n / k / policy", f"{spec.n} / {spec.k} / {spec.policy}"],
        ["naive (s)", f"{report.naive_s:.3f}"],
        ["batched (s)", f"{report.batched_s:.3f}"],
        ["speedup", f"{report.speedup:.2f}x"],
        ["batches executed", report.batches],
        ["mean batch size", f"{report.batch_size_mean:.1f}"],
        ["bitwise identical", report.bitwise_identical],
    ]
    ok = report.bitwise_identical
    pool_row = report.extras.get("pool_backed")
    if pool_row:
        rows += [
            ["pool-backed (s)", f"{pool_row['elapsed_s']:.3f}"],
            ["pool-backed ranks", pool_row["ranks"]],
            ["pool-backed bitwise", pool_row["bitwise_identical"]],
            ["pool-backed plan misses", pool_row["plan_misses"]],
        ]
        ok = ok and pool_row["bitwise_identical"]
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title="serve-bench: batched serving vs naive executor",
        )
    )
    return 0 if ok else 1


def _serve(args: argparse.Namespace) -> int:
    """Serve a deterministic stream, locally or on a standing rank pool.

    With ``--backend pool://<rendezvous>`` every batch runs as jobs on
    the already-up pool (``repro pool up`` owns agent lifecycle); an
    optional ``--kill-job`` injects a rank death at that job to prove
    transparent failover.  Results are audited bitwise against the
    in-process batched server; exits 1 on any failed request or mismatch.
    """
    import dataclasses

    import numpy as np

    from repro.core.policy import parse_policy
    from repro.pool.pool import RankPool
    from repro.serve.dist_backend import PoolBackend
    from repro.serve.loadgen import LoadSpec, run_batched_server
    from repro.serve.server import ServerConfig

    spec = LoadSpec(
        n=args.n,
        k=args.k,
        num_requests=args.requests,
        num_kernels=args.kernels,
        sigma=args.sigma,
        policy=args.policy,
        seed=args.seed,
    )
    policy = parse_policy(args.policy)
    if args.kill_job is not None:
        if args.kill_job < 1:
            raise ConfigurationError(
                f"--kill-job is a 1-based job index, got {args.kill_job}"
            )
        if not 0 <= args.kill_rank < args.ranks:
            raise ConfigurationError(
                f"--kill-rank {args.kill_rank} out of range [0, {args.ranks})"
            )

    def server_config() -> ServerConfig:
        return ServerConfig(
            n=args.n,
            k=args.k,
            max_batch_size=args.max_batch_size,
            max_wait_s=args.max_wait,
        )

    # In-process reference pass: the bitwise audit target.
    _, local, _ = run_batched_server(spec, policy, server_config())
    if args.backend == "local":
        print("backend 'local' is the reference path itself; nothing to audit")
        return 0
    if not args.backend.startswith("pool://"):
        raise ReproError(
            f"--backend must be 'local' or 'pool://<rendezvous-url>', "
            f"got {args.backend!r}"
        )
    rendezvous = args.backend[len("pool://") :]

    job_hook = None
    if args.kill_job is not None:

        def job_hook(job_index, config):
            if job_index != args.kill_job:
                return config
            return dataclasses.replace(
                config, fail_rank=args.kill_rank, fail_stage=args.kill_stage
            )

    pool = RankPool(rendezvous)
    pool.connect(args.ranks)
    try:
        _, handles, server = run_batched_server(
            spec,
            policy,
            server_config(),
            executor=PoolBackend(pool, job_hook=job_hook),
        )
        failed = [h for h in handles if h.exception() is not None]
        bitwise = all(
            np.array_equal(
                h.result(timeout=0).approx, ref.result(timeout=0).approx
            )
            for h, ref in zip(handles, local)
            if h.exception() is None
        )
        snap = server.snapshot()
        server.shutdown()
    finally:
        pool.disconnect()
    counters = snap["counters"]
    last = snap.get("backend", {}).get("last_job", {})
    print(
        format_table(
            ["quantity", "value"],
            [
                ["backend / ranks", f"pool://{rendezvous} / {args.ranks}"],
                ["requests completed", counters.get("requests_completed", 0)],
                ["requests failed", len(failed)],
                ["bitwise identical to local serve", bitwise],
                ["injected kill", args.kill_job if args.kill_job is not None
                 else "none"],
                ["pool recoveries", counters.get("pool.recoveries", 0)],
                ["ranks replaced", counters.get("pool.replacements", 0)],
                ["generation bumps", counters.get("pool.generation_bumps", 0)],
                ["last job generation", last.get("generation", "-")],
                ["last job plan misses", last.get("plan_misses", "-")],
                ["pool wire bytes", counters.get("pool.wire_bytes", 0)],
                ["pool control bytes", counters.get("pool.control_bytes", 0)],
            ],
            title="serve: dist-backed serving audit",
        )
    )
    return 1 if (failed or not bitwise) else 0


def _grid_flags(parser: argparse.ArgumentParser) -> None:
    """The problem every convolution verb builds: grid, kernel, policy."""
    group = parser.add_argument_group("problem")
    group.add_argument("--n", type=int, default=64, help="global grid edge")
    group.add_argument("--k", type=int, default=16, help="sub-domain edge")
    group.add_argument("--sigma", type=float, default=2.0, help="kernel width")
    group.add_argument("--seed", type=int, default=0, help="input field seed")
    group.add_argument(
        "--policy",
        default="banded",
        help="sampling policy spec: 'banded' or 'flat:R'",
    )


def _stream_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("request stream")
    group.add_argument(
        "--requests", type=int, default=16, help="number of requests in the stream"
    )
    group.add_argument(
        "--kernels",
        type=int,
        default=1,
        help="distinct kernels across the stream (compatibility groups)",
    )
    group.add_argument(
        "--max-batch-size", type=int, default=8, help="dynamic batching size cap"
    )
    group.add_argument(
        "--max-wait",
        type=float,
        default=0.05,
        help="max seconds a partial batch waits before flushing",
    )


def _build_parser() -> Tuple[
    argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]
]:
    """One sub-parser per verb, each with only the flags that verb reads;
    returns the top-level parser and the verb -> sub-parser map."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run, serve and lint the low-communication 3D "
        "convolution of the ICPP Workshops '22 paper.",
    )
    verbs = parser.add_subparsers(dest="command", required=True, metavar="command")

    pipeline = verbs.add_parser(
        "pipeline", help="run the end-to-end convolution itself"
    )
    _grid_flags(pipeline)

    dist = verbs.add_parser(
        "dist-run", help="execute the pipeline as a real multi-process SPMD job"
    )
    _grid_flags(dist)
    dist.add_argument("--ranks", type=int, default=2, help="number of SPMD ranks")
    dist.add_argument(
        "--transport",
        choices=["local", "tcp"],
        default="tcp",
        help="rank transport: 'tcp' = one OS process per rank over "
        "localhost sockets, 'local' = in-process loopback threads",
    )
    dist.add_argument(
        "--overlap",
        action="store_true",
        help="stream each finished chunk into the exchange while the "
        "next chunk computes (overlap mode) instead of the "
        "compute-then-exchange barrier",
    )
    dist.add_argument(
        "--window",
        type=int,
        default=2,
        help="bounded in-flight chunk window for --overlap "
        "(2 = double buffered)",
    )

    bench = verbs.add_parser(
        "serve-bench", help="benchmark the batching service against naive serving"
    )
    _grid_flags(bench)
    _stream_flags(bench)
    bench.add_argument(
        "--pool",
        default=None,
        help="also A/B the pool-backed path — 'auto' spawns a private "
        "pool of --pool-ranks agents, or pass a rendezvous URL to connect "
        "to an already-up pool",
    )
    bench.add_argument(
        "--pool-ranks",
        type=int,
        default=2,
        help="rank count for --pool (must match the standing pool's size)",
    )

    serve = verbs.add_parser(
        "serve", help="audit dist-backed serving on a standing pool"
    )
    _grid_flags(serve)
    _stream_flags(serve)
    serve.add_argument(
        "--backend",
        default="local",
        help="'local' or 'pool://<rendezvous-url>' (an already-up pool; "
        "--ranks many agents)",
    )
    serve.add_argument(
        "--ranks", type=int, default=2, help="agents to connect on the pool"
    )
    serve.add_argument(
        "--kill-job",
        type=int,
        default=None,
        help="inject a rank death at this 1-based pool job index "
        "(proves transparent failover)",
    )
    serve.add_argument(
        "--kill-rank", type=int, default=1, help="which rank --kill-job kills"
    )
    serve.add_argument(
        "--kill-stage",
        choices=BARRIER_FAIL_STAGES,
        default="before_checkpoint",
        help="pipeline stage --kill-job kills at (pool jobs run the "
        "barrier exchange)",
    )

    lint = verbs.add_parser("lint", help="project-specific static analysis")
    lint.add_argument(
        "paths", nargs="*", help="files/directories to lint (default: src)"
    )
    lint.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json is the stable CI-artifact schema)",
    )
    lint.add_argument(
        "--timing",
        action="store_true",
        help="append a per-rule wall-time column to the text report "
        "(JSON output always carries timings)",
    )

    # pool owns its sub-command surface: the rest of argv goes to it.
    verbs.add_parser(
        "pool",
        add_help=False,
        help="operate the standing rank pool (see 'repro pool --help')",
    )
    return parser, verbs.choices


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser, verbs = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "pool":
        from repro.pool.cli import pool_main

        return pool_main(rest)
    if rest:
        verbs[args.command].error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        if args.command == "lint":
            return _lint(args)
        if args.command == "serve":
            return _serve(args)
        if args.command == "serve-bench":
            return _serve_bench(args)
        if args.command == "dist-run":
            return _dist_run(args)
        _pipeline(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, PoolError) else 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
