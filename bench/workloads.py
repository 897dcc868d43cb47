"""The four workloads: what each runs, times, checks and reports.

Every workload follows one sequence (see :func:`execute`):

1. ``inputs``   build the fields from the seed with numpy alone;
2. ``setup``    *timed as set-up*: import ``repro``, build the kernel spectrum
   and the pipeline / pool / server, run the cold first operation;
3. ``oracle``   outside every clock: ``reference_convolve`` and, for the pool
   and the server, the same commit's ``run_serial`` on the same inputs;
4. ``measure``  warm operations for ``--seconds`` seconds, each checked as it
   completes and then dropped;
5. ``teardown`` stop what set-up started.

The program is driven only through its front doors (``run_serial``,
``reference_convolve``, ``GaussianKernel.spectrum``, ``parse_policy``,
``DistConfig``/``dist_run``, ``RankPool.spawn/connect/submit/down``,
``ConvolutionServer.register_kernel/submit/start/stop/snapshot``) and receives
only arrays.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from tracing import Tracer

clock = time.perf_counter

SIGMA = 2.0
#: field correlation length, in cells
CORRELATION_CELLS = 3.0
#: a workload's measuring loop gives up after this many failed operations
MAX_FAILURES = 10

#: serve, traced run: open-loop rate (req/s) -> share of ``--seconds`` its
#: phase lasts; the bursts take the rest.  Every phase sends over 100 requests
#: at the pinned run length, so p90 has ten samples beyond it.  The untraced
#: run reports none of the phases' numbers and spends all its time on bursts.
PHASE_SHARE = {15: 0.35, 30: 0.20, 45: 0.15}
RATES = tuple(PHASE_SHARE)
#: the p90 a rate must meet to count as served
LATENCY_LIMIT_S = 0.15
#: requests per closed burst: two full batches (``max_batch_size`` 8), one per
#: kernel.  Short bursts (~0.3 s), so the machine's speed is sampled often.
BURST_REQUESTS = 16
SERVE_KERNEL_SIGMAS = (2.0, 2.5)
SERVE_FIELDS = 4
POLL_S = 0.002

WORKLOADS = {
    "serial_banded_dense": dict(
        kind="serial", n=64, k=16, policy="banded", half=False, ceiling=0.15
    ),
    "serial_flat_n128": dict(
        kind="serial", n=128, k=32, policy="flat:2", half=True, ceiling=0.03
    ),
    "pool_tcp_p2": dict(
        kind="pool", n=64, k=16, policy="banded", half=True, ceiling=0.05
    ),
    "serve_open_loop": dict(
        kind="serve", n=32, k=8, policy="flat:2", half=True, ceiling=0.05
    ),
}
#: ``--smoke`` runs every workload at this size, on the cheap policy and field
#: (8 active sub-domains, 15 ms a solve): it tests the harness, not the
#: program.  The error ceilings are for the real sizes, so smoke only requires
#: a finite, non-trivial error.
SMOKE_SHAPE = dict(n=32, k=8, policy="flat:2", half=True, ceiling=1.0)


# -- inputs ------------------------------------------------------------------
def correlated_field(n: int, rng: np.random.Generator, half: bool) -> np.ndarray:
    """Gaussian-correlated noise, max |f| = 1; ``half`` keeps only the central
    half-cube, so the outer sub-domains are exactly zero."""
    freq = np.fft.fftfreq(n)
    k2 = freq[:, None, None] ** 2 + freq[None, :, None] ** 2 + np.fft.rfftfreq(n) ** 2
    smooth = np.exp(-2.0 * (np.pi * CORRELATION_CELLS) ** 2 * k2)
    field = np.fft.irfftn(
        np.fft.rfftn(rng.standard_normal((n, n, n))) * smooth, s=(n, n, n), axes=(0, 1, 2)
    )
    if half:
        q = n // 4
        masked = np.zeros_like(field)
        masked[q : n - q, q : n - q, q : n - q] = field[q : n - q, q : n - q, q : n - q]
        field = masked
    return field / np.abs(field).max()


# -- machine speed -------------------------------------------------------------
#: what one pass of the calibration kernel takes on the reference box (2-core
#: Xeon 2.1 GHz VM) when nothing else runs
CALIBRATION_REFERENCE_S = 0.0133
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((256, 256))


def calibration_pass() -> float:
    """Seconds for a fixed piece of work, part interpreter loop and part numpy
    FFT and matmul, like the program's own mix."""
    t0 = clock()
    total = 0
    for i in range(120_000):
        total += i * i
    for _ in range(4):
        np.fft.fft2(_CALIBRATION_MATRIX)
        _CALIBRATION_MATRIX @ _CALIBRATION_MATRIX
    return clock() - t0


class MachineSpeed:
    """How much slower than the reference box this machine is running *now*.

    The sandbox's speed drifts by tens of per cent over seconds and minutes
    (shared host), which is more than the bounds the metrics are held to.  So
    calibration passes are interleaved with the operations of a run, while the
    program is idle.  An operation's end-to-end time is divided by the
    slowdown sampled just before and just after it (:func:`reference_seconds`);
    the per-layer times by the run's median slowdown (:meth:`slowdown`).  Either
    way the result is seconds as the reference box would have measured them.
    Times a wall-clock timer sets (a served request's wait for its batch) are
    reported as measured.  The run's factor and the operation time as
    measured are stored with the result.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, passes: int = 1) -> float:
        """Run ``passes`` calibration passes; returns their mean slowdown.  A
        pass before them is thrown away: the first one after this thread has
        been blocked (in a job, in a burst) reads up to a third slow."""
        calibration_pass()
        taken = [calibration_pass() for _ in range(passes)]
        self.samples.extend(taken)
        return statistics.mean(taken) / CALIBRATION_REFERENCE_S

    def slowdown(self) -> float:
        return statistics.median(self.samples) / CALIBRATION_REFERENCE_S


def reference_seconds(wall: float, before: float, after: float) -> float:
    """``wall`` seconds of work done between two samples of the slowdown, as
    the reference box would have measured it."""
    return wall / ((before + after) / 2.0)


# -- statistics --------------------------------------------------------------
def summary(samples: List[float]) -> dict:
    """Median, quartiles and count of a timing sample."""
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def rel_l2(approx: np.ndarray, reference: np.ndarray) -> float:
    return float(np.linalg.norm(approx - reference) / np.linalg.norm(reference))


class Run:
    """One invocation: its arguments, its failures and its metrics."""

    def __init__(self, workload, seed, seconds, trace, smoke, out):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.out = Path(out)
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        self.speed = MachineSpeed()
        self.attempted = 0
        self.failures: List[dict] = []
        #: name -> {"value": ..., for timings "q1", "q3", "n"}; "final" marks
        #: a time that is not to be divided by the run's slowdown: it is
        #: already in reference seconds, or a wall-clock timer sets it
        self.metrics: Dict[str, dict] = {}

    def begin(self, op: str) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.current_op = op

    def fail(self, op: str, reason: str) -> None:
        self.failures.append({"workload": self.workload, "op": op, "reason": reason})

    def check_result(self, op: str, approx: np.ndarray, expected: Optional[np.ndarray]) -> bool:
        """Finite, and bitwise equal to ``expected`` when one is given."""
        if not np.isfinite(approx).all():
            self.fail(op, "non-finite output")
            return False
        if expected is not None and not np.array_equal(approx, expected):
            self.fail(op, "not bitwise equal to same-commit run_serial")
            return False
        return True

    def check_error(self, op: str, error: float, ceiling: float) -> None:
        if not 0.0 < error <= ceiling:
            self.fail(op, f"rel_l2_err {error:.6g} outside (0, {ceiling}]")

    def value(self, name: str, value, final: bool = False) -> None:
        self.metrics[name] = {
            "value": None if value is None else float(value),
            "final": final,
        }

    def timing(self, name: str, samples: List[float], final: bool = False) -> None:
        if samples:
            self.metrics[name] = dict(summary(samples), final=final)

    def op_seconds(self, walls: List[float], references: List[float]) -> None:
        """The end-to-end ``op_s``: the operations' reference seconds, with
        the median as measured kept beside it."""
        if walls:
            self.timing("op_s", references, final=True)
            self.metrics["op_s"]["as_measured"] = statistics.median(walls)

    def too_many_failures(self) -> bool:
        return len(self.failures) >= MAX_FAILURES


# -- numbers every workload derives the same way -------------------------------
def result_metrics(run: Run, result, n: int, k: int, hermitian: bool) -> None:
    """Counts *computed* from one ``ConvolutionResult``'s patterns: they say
    how much work a solve is, not how long it took."""
    rows = n // 2 + 1 if hermitian else n
    macs = 0
    retained = []
    cells = 0
    for _sub, compressed in result.per_domain:
        pattern = compressed.pattern
        mx, my, mz = (len(pattern.axis_coordinate_set(axis)) for axis in range(3))
        # the three partial-iDFT matmuls of one local convolution
        macs += rows * n * n * mz + rows * mz * n * my + my * mz * rows * mx
        retained.append((mx + my + mz) / (3.0 * n))
        cells += pattern.num_cells
    total = (n // k) ** 3
    run.value("fft.idft_macs", macs)
    run.value("fft.retained_frac", statistics.mean(retained))
    run.value("octree.cells", cells)
    run.value("octree.samples", result.total_samples)
    run.value("octree.compression_ratio", result.compression_ratio)
    run.value("core.active_subdomains", result.num_subdomains)
    run.value("core.skipped_subdomains", total - result.num_subdomains)


def codec_metrics(run: Run, result) -> None:
    """One encode and one decode pass over the workload's own compressed
    fields, timed here because no serial path calls the codec."""
    from repro.octree.serialize import deserialize_compressed, serialize_segments

    fields = [compressed for _sub, compressed in result.per_domain]
    t0 = clock()
    blobs = [b"".join(serialize_segments(f)) for f in fields]
    encode_s = clock() - t0
    t0 = clock()
    decoded = [deserialize_compressed(blob) for blob in blobs]
    decode_s = clock() - t0
    run.attempted += 1
    if not all(np.array_equal(d.values, f.values) for d, f in zip(decoded, fields)):
        run.fail("codec", "decode(encode(field)) differs from field")
    megabytes = sum(len(b) for b in blobs) / 1e6
    run.value("octree.encode_s", encode_s)
    run.value("octree.decode_s", decode_s)
    run.value("octree.encode_mb_per_s", megabytes / encode_s)
    run.value("octree.decode_mb_per_s", megabytes / decode_s)


#: per-layer metric -> the span whose self time it reports, per operation
SPAN_SECONDS = {
    "fft.forward_slab_s": "fft.forward_slab",
    "fft.zstage_s": "fft.zstage",
    "fft.idft_z_s": "fft.idft_z",
    "fft.idft_y_s": "fft.idft_y",
    "fft.idft_x_s": "fft.idft_x",
    "core.convolve_self_s": "core.convolve",
    "core.accumulate_self_s": "core.accumulate",
    "core.run_self_s": "core.run",
    "core.checkpoint_encode_s": "core.checkpoint_encode",
    "core.checkpoint_decode_s": "core.checkpoint_decode",
    "octree.reconstruct_s": "octree.reconstruct",
    "dist.broadcast_s": "dist.broadcast",
    "dist.allgather_s": "dist.allgather",
}
FFT_STAGES = ("fft.forward_slab", "fft.zstage", "fft.idft_z", "fft.idft_y", "fft.idft_x")


def span_metrics(run: Run, ops: List[str], walls: List[float]) -> None:
    """Per-operation self seconds and call counts of the traced spans.  A span
    none of whose targets exists any more reports ``None``."""
    tracer = run.tracer
    self_times = tracer.self_times(set(ops))
    count = len(ops)

    def seconds(span):
        return self_times.get(span, (0.0, 0))[0] / count if span in tracer.wrapped else None

    def calls(span):
        return self_times.get(span, (0.0, 0))[1] / count if span in tracer.wrapped else None

    for metric, span in SPAN_SECONDS.items():
        run.value(metric, seconds(span))
    stage_calls = [calls(span) for span in FFT_STAGES]
    run.value("fft.stage_calls", None if None in stage_calls else sum(stage_calls))
    gets, builds = calls("fft.plan_get"), calls("fft.plan_build")
    run.value("fft.plan_misses", builds)
    run.value("fft.plan_hits", None if None in (gets, builds) else gets - builds)
    run.value("octree.reconstruct_calls", calls("octree.reconstruct"))
    # the parts against the whole: every span's self time over the wall time
    # the harness measured around the same operations (rank threads running
    # side by side push it above 1)
    run.value("core.span_coverage", sum(t for t, _ in self_times.values()) / sum(walls))


# -- serial --------------------------------------------------------------------
class Serial:
    """In-process ``run_serial`` on one warm pipeline, one solve at a time."""

    busy = 1

    def __init__(self, run: Run, shape: dict):
        self.run, self.shape = run, shape

    def inputs(self) -> None:
        rng = np.random.default_rng(self.run.seed)
        self.field = correlated_field(self.shape["n"], rng, self.shape["half"])

    def setup(self) -> None:
        from repro.core.pipeline import LowCommConvolution3D
        from repro.kernels.gaussian import GaussianKernel
        from repro.serve.loadgen import parse_policy

        n, k = self.shape["n"], self.shape["k"]
        self.spectrum = GaussianKernel(n=n, sigma=SIGMA).spectrum()
        self.pipeline = LowCommConvolution3D(
            n, k, self.spectrum, policy=parse_policy(self.shape["policy"])
        )
        t0 = clock()
        self.pipeline.run_serial(self.field)
        self.cold_s = clock() - t0

    def oracle(self) -> None:
        from repro.core.reference import reference_convolve

        self.reference = reference_convolve(self.field, self.spectrum)

    def measure(self) -> None:
        run, shape = self.run, self.shape
        walls: List[float] = []
        references: List[float] = []
        ops: List[str] = []
        first = None
        end = clock() + run.seconds
        after = run.speed.sample()
        while clock() < end and not run.too_many_failures():
            op = f"solve{run.attempted}"
            run.begin(op)
            t0 = clock()
            try:
                result = self.pipeline.run_serial(self.field)
            except Exception as exc:  # noqa: BLE001 - a failed op is a result, not a crash
                run.fail(op, f"{type(exc).__name__}: {exc}")
                result = None
            wall = clock() - t0
            before, after = after, run.speed.sample()
            if result is None:
                continue
            walls.append(wall)
            references.append(reference_seconds(wall, before, after))
            ops.append(op)
            if first is None:
                first = result
                if run.check_result(op, result.approx, None):
                    error = rel_l2(result.approx, self.reference)
                    run.check_error(op, error, shape["ceiling"])
                    run.value("rel_l2_err", error)
            else:
                run.check_result(op, result.approx, first.approx)
        if not walls:
            return
        run.op_seconds(walls, references)
        run.value("bytes_per_op", first.compressed_bytes)
        if run.tracer is not None:
            span_metrics(run, ops, walls)
            result_metrics(run, first, shape["n"], shape["k"], self.pipeline.local.real_kernel)
            codec_metrics(run, first)
            run.value("fft.plan_build_s", self.cold_s - statistics.median(walls))

    def teardown(self) -> None:
        pass


# -- pool ----------------------------------------------------------------------
class Job(NamedTuple):
    """One pool or ``dist_run`` job that ran."""

    op: str
    overlap: bool
    wall: float
    #: ``wall`` as the reference box would have measured it
    reference_s: float
    report: object


class Pool:
    """A standing two-rank TCP pool; warm jobs alternate barrier and streamed
    exchange, so a gain for one mode that costs the other shows in one run."""

    busy = 2  # two rank processes; the driver blocks in submit meanwhile
    ranks = 2

    def __init__(self, run: Run, shape: dict):
        self.run, self.shape = run, shape
        self.pool = None
        self.rendezvous_dir = None

    def inputs(self) -> None:
        rng = np.random.default_rng(self.run.seed)
        self.field = correlated_field(self.shape["n"], rng, self.shape["half"])

    def config(self, overlap: bool, transport: str = "tcp"):
        from repro.dist import DistConfig

        return DistConfig(
            n=self.shape["n"],
            k=self.shape["k"],
            sigma=SIGMA,
            policy=self.shape["policy"],
            num_ranks=self.ranks,
            transport=transport,
            overlap=overlap,
            window=2,
        )

    def setup(self) -> None:
        from repro.kernels.gaussian import GaussianKernel
        from repro.pool.pool import RankPool

        self.spectrum = GaussianKernel(n=self.shape["n"], sigma=SIGMA).spectrum()
        self.run.out.mkdir(parents=True, exist_ok=True)
        self.rendezvous_dir = tempfile.mkdtemp(prefix="rendezvous-", dir=self.run.out)
        t0 = clock()
        self.pool = RankPool(f"file://{self.rendezvous_dir}")
        self.pool.spawn(self.ranks)
        self.pool.connect(self.ranks)
        self.bootstrap_s = clock() - t0
        t0 = clock()
        self.pool.submit(self.config(overlap=False), field=self.field, spectrum=self.spectrum)
        self.first_submit_s = clock() - t0

    def oracle(self) -> None:
        from repro.core.pipeline import LowCommConvolution3D
        from repro.core.reference import reference_convolve
        from repro.serve.loadgen import parse_policy

        pipeline = LowCommConvolution3D(
            self.shape["n"], self.shape["k"], self.spectrum,
            policy=parse_policy(self.shape["policy"]),
        )
        self.serial = pipeline.run_serial(self.field)
        self.hermitian = pipeline.local.real_kernel
        self.reference = reference_convolve(self.field, self.spectrum)

    def jobs(self, seconds: float, submit, transport: str) -> List[Job]:
        """Alternate barrier / streamed jobs through ``submit`` until the time
        is up; returns the jobs that ran."""
        run = self.run
        done: List[Job] = []
        end = clock() + seconds
        after = run.speed.sample(2)
        while (clock() < end or len(done) < 2) and not run.too_many_failures():
            overlap = bool(len(done) % 2)
            op = f"{transport}-job{run.attempted}"
            run.begin(op)
            t0 = clock()
            try:
                report = submit(
                    self.config(overlap, transport), field=self.field, spectrum=self.spectrum
                )
            except Exception as exc:  # noqa: BLE001 - a failed op is a result, not a crash
                run.fail(op, f"{type(exc).__name__}: {exc}")
                report = None
            wall = clock() - t0
            before, after = after, run.speed.sample(2)
            if report is None:
                continue
            run.check_result(op, report.approx, self.serial.approx)
            if report.recovered:
                run.fail(op, "job needed recovery")
            report.approx = None  # checked; keep the counters, drop the grid
            done.append(Job(op, overlap, wall, reference_seconds(wall, before, after), report))
        return done

    def measure(self) -> None:
        run = self.run
        traced = run.tracer is not None
        tcp = self.jobs(run.seconds * (0.5 if traced else 1.0), self.pool.submit, "tcp")
        for job in tcp:
            if job.report.plan_misses:
                run.fail(job.op, f"warm job missed {job.report.plan_misses} plans")
        barrier = [job for job in tcp if not job.overlap]
        streamed = [job for job in tcp if job.overlap]
        if not barrier or not streamed:
            return
        from repro.dist import sent_wire_bytes

        error = rel_l2(self.serial.approx, self.reference)  # jobs are bitwise equal to it
        run.check_error(tcp[0].op, error, self.shape["ceiling"])
        run.value("rel_l2_err", error)
        run.op_seconds([job.wall for job in tcp], [job.reference_s for job in tcp])
        run.value("bytes_per_op", sent_wire_bytes(barrier[-1].report.wire_totals))
        if traced:
            self.layer_metrics(tcp, barrier, streamed)

    def layer_metrics(self, tcp, barrier, streamed) -> None:
        run = self.run
        run.timing("pool.job_barrier_s", [job.reference_s for job in barrier], final=True)
        run.timing("pool.job_streamed_s", [job.reference_s for job in streamed], final=True)
        run.value("pool.bootstrap_s", self.bootstrap_s)
        run.value("pool.first_submit_s", self.first_submit_s)
        run.value("pool.plan_misses_warm", sum(job.report.plan_misses for job in tcp))
        run.value("pool.recoveries", sum(bool(job.report.recovered) for job in tcp))
        # computed: what rank 0 is handed per job, which no ledger counts
        run.value("pool.control_in_bytes", self.field.nbytes + self.spectrum.nbytes)

        def ranks(job):
            return list(job.report.rank_results.values())

        compute = [max(r.compute_s for r in ranks(job)) for job in barrier]
        exchange = [max(r.exchange_s for r in ranks(job)) for job in barrier]
        run.timing("dist.compute_s", compute)
        run.timing("dist.exchange_s", exchange)
        run.timing(
            "dist.rank_other_s",
            [job.wall - c - x for job, c, x in zip(barrier, compute, exchange)],
        )
        run.value(
            "dist.compute_imbalance",
            statistics.median(
                max(r.compute_s for r in ranks(job))
                / statistics.mean(r.compute_s for r in ranks(job))
                for job in barrier
            ),
        )
        sent = sum(r.exchange_send_s for job in streamed for r in ranks(job))
        hidden = sum(r.exchange_hidden_s for job in streamed for r in ranks(job))
        run.value("dist.exchange_hidden_frac", hidden / sent if sent else 0.0)
        last = barrier[-1].report
        run.value("dist.bcast_bytes", last.wire_totals.get("sent.bcast.bytes", 0))
        run.value("dist.exchange_bytes", last.wire_totals.get("sent.exchange.bytes", 0))
        run.value(
            "dist.exchange_frames_per_peer",
            max(r.exchange_frames_per_peer for r in ranks(streamed[-1])),
        )
        run.value(
            "dist.copied_wire_bytes",
            sum(r.copies.get("wire_bytes", 0) for r in ranks(barrier[-1])),
        )
        run.value("dist.predicted_value_bytes", last.predicted_value_bytes)
        run.value("dist.wire_over_model", last.wire_over_model)
        result_metrics(run, self.serial, self.shape["n"], self.shape["k"], self.hermitian)
        codec_metrics(run, self.serial)

        # Spans cannot see into rank processes, so the same jobs run again on
        # rank *threads* of this process, after the pool's ranks are gone.
        from repro.dist import dist_run

        self.teardown()
        local = self.jobs(run.seconds * 0.5, dist_run, "local")
        if local:
            span_metrics(run, [job.op for job in local], [job.wall for job in local])

    def teardown(self) -> None:
        if self.pool is not None:
            self.pool.down()
            self.pool = None
        if self.rendezvous_dir is not None:
            shutil.rmtree(self.rendezvous_dir, ignore_errors=True)
            self.rendezvous_dir = None


# -- serve ---------------------------------------------------------------------
class Serve:
    """An in-process server on its own thread, fed by one generator thread:
    closed bursts for capacity and, in the traced run, open-loop phases at
    fixed rates, each request timed from the moment it was due."""

    busy = 2  # the generator and the server's pump thread

    def __init__(self, run: Run, shape: dict):
        self.run, self.shape = run, shape
        self.server = None
        self.submit_s: List[float] = []

    def inputs(self) -> None:
        rng = np.random.default_rng(self.run.seed)
        self.fields = [
            correlated_field(self.shape["n"], rng, self.shape["half"])
            for _ in range(SERVE_FIELDS)
        ]

    def setup(self) -> None:
        from repro.kernels.gaussian import GaussianKernel
        from repro.serve import ConvolutionServer, ServerConfig
        from repro.serve.loadgen import parse_policy

        n, k = self.shape["n"], self.shape["k"]
        self.policy = parse_policy(self.shape["policy"])
        self.spectra = {
            f"gauss{sigma}": GaussianKernel(n=n, sigma=sigma).spectrum()
            for sigma in SERVE_KERNEL_SIGMAS
        }
        self.kernels = list(self.spectra)
        self.server = ConvolutionServer(
            ServerConfig(n=n, k=k, max_queue=512, default_policy=self.policy)
        )
        for name, spectrum in self.spectra.items():
            self.server.register_kernel(name, spectrum)
        self.server.start()
        self.first = {
            name: self.server.submit(self.fields[0], kernel=name).result(timeout=60.0)
            for name in self.kernels
        }

    def oracle(self) -> None:
        from repro.core.pipeline import LowCommConvolution3D
        from repro.core.reference import reference_convolve

        n, k = self.shape["n"], self.shape["k"]
        self.expected = {}
        for name, spectrum in self.spectra.items():
            pipeline = LowCommConvolution3D(n, k, spectrum, policy=self.policy)
            for index, field in enumerate(self.fields):
                self.expected[index, name] = pipeline.run_serial(field).approx
            self.hermitian = pipeline.local.real_kernel
        # served results are checked bitwise against ``expected``, so its
        # error is theirs; the mean over every input steadies it across seeds
        self.errors = [
            rel_l2(approx, reference_convolve(self.fields[index], self.spectra[name]))
            for (index, name), approx in self.expected.items()
        ]

    def send(self, sequence: int):
        """Submit request number ``sequence``; fields and kernels rotate."""
        index = sequence % SERVE_FIELDS
        name = self.kernels[(sequence // SERVE_FIELDS) % len(self.kernels)]
        op = f"request{self.run.attempted}"
        self.run.begin(op)
        t0 = clock()
        handle = self.server.submit(self.fields[index], kernel=name)
        self.submit_s.append(clock() - t0)
        return op, handle, (index, name)

    def collect(self, op: str, handle, key) -> bool:
        """Check a finished request against its oracle and drop its result."""
        try:
            result = handle.result(timeout=0.0)
        except Exception as exc:  # noqa: BLE001 - rejected, timed out or failed
            self.run.fail(op, f"{type(exc).__name__}: {exc}")
            return False
        return self.run.check_result(op, result.approx, self.expected[key])

    def sweep(self, pending: list, latencies: List[float]) -> None:
        """Retire finished requests; ``pending`` holds ``(op, handle, key,
        due)`` and a latency runs from ``due`` to this sweep."""
        now = clock()
        for item in [p for p in pending if p[1].done()]:
            pending.remove(item)
            op, handle, key, due = item
            if self.collect(op, handle, key):
                latencies.append(now - due)

    def burst(self, sequence: int) -> float:
        """Closed burst: submit ``BURST_REQUESTS`` at once, then block on each
        in turn, so only the server's thread is busy; returns its seconds."""
        t0 = clock()
        sent = [self.send(sequence + i) for i in range(BURST_REQUESTS)]
        for op, handle, key in sent:
            if handle.wait(timeout=60.0):
                self.collect(op, handle, key)
            else:
                self.run.fail(op, "not finished 60s into the burst")
        return clock() - t0

    def open_loop(self, rate: int, duration: float, sequence: int) -> dict:
        """Send on a fixed schedule whatever the server does.  The backlog is
        what is still unfinished one latency limit after the last due time:
        zero unless the queue was growing."""
        total = max(1, round(rate * duration))
        latencies: List[float] = []
        lateness: List[float] = []
        pending: list = []
        backlog = None
        before = self.server.snapshot()
        start = clock() + POLL_S
        last_due = start + (total - 1) / rate
        sent = 0
        while sent < total or pending:
            now = clock()
            while sent < total and now >= start + sent / rate:
                due = start + sent / rate
                lateness.append(now - due)
                pending.append((*self.send(sequence + sent), due))
                sent += 1
                now = clock()
            self.sweep(pending, latencies)
            if backlog is None and sent == total and now >= last_due + LATENCY_LIMIT_S:
                backlog = len(pending)
            if now > last_due + 60.0:
                for op, *_ in pending:
                    self.run.fail(op, "not finished 60s after the phase")
                break
            next_due = start + sent / rate if sent < total else now + POLL_S
            time.sleep(max(0.0, min(POLL_S, next_due - clock())))
        return {
            "latencies": latencies,
            "lateness": lateness,
            "backlog": len(pending) if backlog is None else backlog,
            "before": before,
            "after": self.server.snapshot(),
            "sent": total,
        }

    def measure(self) -> None:
        run, shape = self.run, self.shape
        for name in self.kernels:
            run.attempted += 1
            run.check_result(f"first-{name}", self.first[name].approx, self.expected[0, name])
        run.check_error("oracle", max(self.errors), shape["ceiling"])
        traced = run.tracer is not None
        # The end-to-end time is a request's share of a closed burst: the
        # server at capacity, where only its thread is busy and the time is
        # compute the machine's speed scales.  Latency under an arrival
        # schedule also holds the batching window, a wall-clock timer, and on a
        # shared host it did not repeat within any bound worth holding; the
        # traced run measures it, per layer.
        walls: List[float] = []
        references: List[float] = []
        sequence = 0
        end = clock() + run.seconds * (1.0 - sum(PHASE_SHARE.values()) if traced else 1.0)
        after = run.speed.sample()
        while (clock() < end or len(walls) < 2) and not run.too_many_failures():
            wall = self.burst(sequence) / BURST_REQUESTS
            sequence += BURST_REQUESTS
            before, after = after, run.speed.sample()
            walls.append(wall)
            references.append(reference_seconds(wall, before, after))
        run.op_seconds(walls, references)
        run.value("rel_l2_err", statistics.mean(self.errors))
        run.value("bytes_per_op", self.first[self.kernels[0]].compressed_bytes)
        if traced:
            phases = {}
            for rate in RATES:
                run.speed.sample(5)
                phases[rate] = self.open_loop(rate, PHASE_SHARE[rate] * run.seconds, sequence)
                sequence += phases[rate]["sent"]
            self.layer_metrics(phases)

    def layer_metrics(self, phases: dict) -> None:
        run = self.run

        def p90(samples):
            return float(np.percentile(samples, 90)) if samples else None

        for rate, phase in phases.items():
            run.timing(f"serve.latency_p50_s.r{rate}", phase["latencies"], final=True)
            run.value(f"serve.latency_p90_s.r{rate}", p90(phase["latencies"]), final=True)
        served = [
            rate for rate, phase in phases.items()
            if phase["latencies"] and p90(phase["latencies"]) <= LATENCY_LIMIT_S
            and phase["backlog"] == 0
        ]
        run.value("serve.max_rate_ok_rps", max(served, default=0))
        quiet = [phases[rate] for rate in RATES[:2]]
        run.value("serve.backlog_end", max(phase["backlog"] for phase in quiet))
        lateness = [late for phase in quiet for late in phase["lateness"]]
        run.value("serve.gen_lateness_p90_s", p90(lateness), final=True)
        run.value("serve.gen_lateness_max_s", max(lateness), final=True)
        run.timing("serve.submit_s", self.submit_s)

        # the server's own histograms, differenced over the open-loop phases
        before = phases[RATES[0]]["before"]
        after = phases[RATES[-1]]["after"]

        def mean_of(histogram):
            h0 = before["histograms"].get(histogram, {"sum": 0.0, "count": 0})
            h1 = after["histograms"].get(histogram, {"sum": 0.0, "count": 0})
            count = h1["count"] - h0["count"]
            return (h1["sum"] - h0["sum"]) / count if count else None

        def counted(counter):
            return after["counters"].get(counter, 0) - before["counters"].get(counter, 0)

        run.value("serve.queue_wait_s", mean_of("stage.queue_wait_s"), final=True)
        run.value("serve.execute_s", mean_of("stage.execute_s"))
        run.value("serve.batch_size_mean", mean_of("batch.size"))
        run.value("serve.batches", counted("batches_executed"))
        final = self.server.snapshot()["counters"]
        run.value("serve.rejected", final.get("requests_rejected", 0))
        run.value("serve.timed_out", final.get("requests_timed_out", 0))
        run.value("serve.retried", final.get("requests_retried", 0))

        first = self.first[self.kernels[0]]
        result_metrics(run, first, self.shape["n"], self.shape["k"], self.hermitian)
        codec_metrics(run, first)
        # a served request's spans start on the server's thread, one root
        # (and so one op) per request; that root is the whole, so coverage
        # here is 1 by construction
        roots = [span for span in run.tracer.spans if span[3] is None]
        if roots:
            span_metrics(run, [s[4] for s in roots], [s[2] - s[1] for s in roots])

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


KINDS = {"serial": Serial, "pool": Pool, "serve": Serve}


def build(run: Run):
    shape = dict(WORKLOADS[run.workload])
    if run.smoke:
        shape.update(SMOKE_SHAPE)
    return KINDS[shape["kind"]](run, shape)


def execute(run: Run, setup_only: bool = False) -> float:
    """Run the sequence above, or only its set-up; returns the set-up time and
    leaves the metrics on ``run``."""
    workload = build(run)
    workload.inputs()
    try:
        t0 = clock()
        workload.setup()
        setup_s = clock() - t0
        # set-up is a single stretch of work, so its speed sample follows it
        after_setup = MachineSpeed()
        after_setup.sample(5)
        setup_s /= after_setup.slowdown()
        if not setup_only:
            workload.oracle()
            if run.tracer is not None:
                run.tracer.install()
            workload.measure()
    finally:
        workload.teardown()
        if run.tracer is not None:
            run.tracer.uninstall()
    return setup_s
