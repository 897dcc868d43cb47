"""The dist-run driver: launch ranks, validate bytes, survive failures.

:func:`dist_run` executes the full low-communication pipeline as a real
SPMD job (see :mod:`repro.dist.runtime`), then:

- assembles the global result from the per-rank blocks (bitwise identical
  to ``run_serial`` — asserted by the test suite and the CLI);
- if any rank died, runs the job again in process
  (:func:`solve_in_process`) over the blocks it still holds — bitwise
  identical by construction, and nothing any rank computed is needed;
- cross-validates the measured exchange traffic against an exact
  per-destination count: each peer is sent only the octree cells that
  touch its boxes, summed over the fields of each frame entry
  (:func:`~repro.dist.worker.exchange_entries`), so the exchanged *value*
  bytes are itemsize times the samples in those unions, summed over
  entries and peers (:attr:`DistRunReport.predicted_value_bytes`), and
  the full wire volume sits only its frame and entry headers above it —
  frames carry values alone, no octree metadata.  The
  paper's Eq 6 allgather count (``(P-1) * itemsize * total sample
  count``, :func:`expected_exchange_value_bytes`) is reported beside it,
  and the real wire moves less than it;
- audits input distribution the same way: the scattered blocks are
  predicted exactly (:func:`predicted_input_bytes`) and measured under
  the ``bcast`` wire category.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.cluster.cost import sparse_sample_count
from repro.core.decomposition import DomainDecomposition
from repro.core.policy import parse_policy
from repro.dist.inputs import Chunks
from repro.dist.ledger import merge_wire_snapshots
from repro.dist.runtime import SpmdOutcome, run_spmd
from repro.dist.worker import (
    DistConfig,
    RankResult,
    build_pipeline,
    composite_field,
    entry_union,
    exchange_entries,
)
from repro.errors import ConfigurationError
from repro.kernels.properties import check_hermitian_real
from repro.octree.sampling import SamplingPattern
from repro.util.clock import Clock, MonotonicClock

_PRECISION_BYTES = {"float64": 8, "float32": 4}


@dataclass
class DistRunReport:
    """Everything one job produced: result, traffic, model check.

    The report of a cold :func:`dist_run`, and the base of the standing
    pool's :class:`~repro.pool.pool.PoolJobReport` — both come out of
    :func:`build_report`.
    """

    approx: np.ndarray
    config: DistConfig
    elapsed_s: float
    #: ranks that died or errored (empty on a clean run)
    failed_ranks: List[int] = dataclass_field(default_factory=list)
    #: True when a rank failed and the job was run again
    recovered: bool = False
    rank_results: Dict[int, RankResult] = dataclass_field(default_factory=dict)
    #: the ranks' per-job ledger counters, summed (``sent.exchange.bytes``...)
    wire_totals: Dict[str, int] = dataclass_field(default_factory=dict)
    #: measured: total bytes-on-wire in the sparse exchange, all ranks
    exchange_wire_bytes: int = 0
    #: exact per-destination accounting: itemsize times the samples in the
    #: distinct cells of each frame entry's fields that touch each peer's
    #: boxes, summed over entries and peers
    predicted_value_bytes: int = 0
    #: the paper's Eq 6 allgather count, ``(P-1) * itemsize * total sample
    #: count`` — what an allgather of every sample would move
    eq6_value_bytes: int = 0
    #: naive Eq 6 closed form (``flat:R`` policies only, else 0)
    naive_eq6_bytes: int = 0
    #: measured: total bytes-on-wire of input distribution (scattered
    #: blocks), all ranks
    input_wire_bytes: int = 0
    #: exact: the ``k^3`` float64 blocks rank 0 scatters to its peers
    predicted_input_bytes: int = 0
    max_compute_s: float = 0.0
    max_exchange_s: float = 0.0
    #: slowest rank's streamed-send time hidden behind compute (overlap
    #: mode only; 0.0 in barrier mode)
    max_exchange_hidden_s: float = 0.0
    #: measured: bytes of the job messages the driver pickled onto the
    #: rank processes' control connections, all ranks — rank 0's active
    #: blocks, and the kernel array for each rank that lacked it (0 for
    #: thread ranks); no wire ledger counts them
    control_in_bytes: int = 0
    #: measured: bytes of the messages the rank processes pickled back
    #: onto the control connections, all ranks — their results, whose
    #: blocks are the dense grid (0 for thread ranks)
    control_out_bytes: int = 0

    @property
    def wire_over_model(self) -> float:
        """Measured exchange wire bytes over the exact per-destination
        value count (:attr:`predicted_value_bytes`).

        1.0 = the wire moved exactly the predicted value bytes; the excess
        is framing: a 20-byte frame header and an 8-byte entry count per
        frame, and per entry a ``16 + 8 L``-byte header (field count, its
        ``L`` sub-domain indices, value count).  0.0 when nothing is
        exchanged (P == 1).
        """
        if not self.predicted_value_bytes:
            return 0.0
        return self.exchange_wire_bytes / self.predicted_value_bytes


def _itemsize(config: DistConfig) -> int:
    itemsize = _PRECISION_BYTES.get(config.precision)
    if itemsize is None:
        raise ConfigurationError(
            f"unknown precision {config.precision!r} "
            f"(expected one of {sorted(_PRECISION_BYTES)})"
        )
    return itemsize


def _patterns(config: DistConfig, active: Iterable[int]) -> Dict[int, SamplingPattern]:
    """The sampling pattern of each ``active`` sub-domain index, in
    index order, from the process-wide table (a warm job builds none)."""
    policy = parse_policy(config.policy)
    decomp = DomainDecomposition(n=config.n, k=config.k)
    return {
        i: policy.pattern_for(config.n, config.k, decomp.subdomain(i).corner)
        for i in sorted(active)
    }


def expected_exchange_value_bytes(config: DistConfig, active: Iterable[int]) -> int:
    """The paper's Eq 6 accounting of the exchange's *value* payload, as
    an allgather.

    Every ``active`` sub-domain index (a non-zero block of the field, as
    :meth:`~repro.core.decomposition.DomainDecomposition.active_subdomains`
    finds them) contributes its sampling pattern's ``sample_count``
    values, each sent once per peer.  The real exchange ships each peer
    only the cells it interpolates
    (:attr:`DistRunReport.predicted_value_bytes`), so it moves less.
    """
    samples = sum(p.sample_count for p in _patterns(config, active).values())
    return _itemsize(config) * (config.num_ranks - 1) * samples


def _per_destination_samples(config: DistConfig, active: Iterable[int]) -> int:
    """The samples the exchange sends, counted per destination.

    Fields are the ``active`` sub-domain indices.  Each rank's frames
    (one in barrier mode, one per field streamed) are cut into entries by
    :func:`~repro.dist.worker.exchange_entries`, and each entry sends each
    peer the union of its fields' cells that touch the peer's boxes.
    Patterns and unions come from the process-wide tables, so a warm
    job's audit builds none.
    """
    patterns = _patterns(config, active)
    ranks = config.num_ranks
    samples = 0
    for src in range(ranks):
        share = {i for i in patterns if i % ranks == src}
        todo = sorted(share)
        for frame in [[i] for i in todo] if config.overlap else [todo]:
            for entry in exchange_entries(frame, share - set(frame), config):
                for dst in range(ranks):
                    union = None if dst == src else entry_union(entry, patterns, config, dst)
                    if union is not None:
                        samples += union.sample_count
    return samples


def naive_eq6_bytes(config: DistConfig) -> int:
    """The paper's closed-form Eq 6 point count, in bytes, as a reference.

    Only defined for ``flat:R`` policies (banded rates vary per cell);
    returns 0 otherwise.  The closed form undercounts the implementation
    (per-axis product sampling + octree cell-face duplication), so it is
    recorded as a reference ratio, not an invariant.
    """
    if not config.policy.startswith("flat:"):
        return 0
    rate = int(config.policy.split(":", 1)[1])
    itemsize = _PRECISION_BYTES.get(config.precision, 8)
    points = config.k**3 + sparse_sample_count(config.n, config.k, rate)
    return int((config.num_ranks - 1) * itemsize * points)


def predicted_input_bytes(config: DistConfig, active: Iterable[int]) -> int:
    """Exact accounting for the scattered input's *value* payload.

    Rank 0 sends each peer the float64 ``k^3`` block of every ``active``
    sub-domain index that peer owns (its own blocks never touch the
    wire), so the input side of the audit is a count of blocks.  The
    kernel is not in it: it never crosses the mesh (a rank that lacks it
    gets it with its job message).
    """
    ranks = config.num_ranks
    blocks = sum(1 for i in active if i % ranks)
    return 8 * config.k**3 * blocks


def assemble_blocks(
    config: DistConfig, results: Dict[int, RankResult]
) -> np.ndarray:
    """Place every rank's accumulated blocks into the global grid.

    The reassembly step shared by the cold driver (:func:`dist_run`) and
    the standing pool (:meth:`repro.pool.RankPool.submit`): blocks are
    disjoint by construction (each sub-domain belongs to exactly one
    rank), so placement order cannot matter — the result is bitwise
    whatever order the rank reports arrived in.

    Placing a rank's blocks *moves* them: ``result.blocks`` is emptied,
    so a report that keeps its ``rank_results`` holds the grid once (in
    ``approx``), not twice.
    """
    decomp = DomainDecomposition(n=config.n, k=config.k)
    approx = np.zeros((config.n,) * 3, dtype=np.float64)
    for result in results.values():
        for index, block in result.blocks.items():
            approx[decomp.subdomain(index).slices()] = block
        result.blocks.clear()
    return approx


def solve_in_process(
    config: DistConfig, blocks: Chunks, spectrum: Optional[np.ndarray]
) -> np.ndarray:
    """The job's grid computed in the driver's process: the fallback of a
    job whose ranks failed.

    ``blocks`` are the job's active ``(sub-domain, k^3 block)`` pairs,
    and ``spectrum=None`` is the config's default kernel.  The pipeline
    is the one every rank builds, summed in ``run_serial``'s order, so
    the grid is bitwise ``run_serial``'s by construction.
    """
    pipeline = build_pipeline(config, spectrum)
    return pipeline.accumulate(list(pipeline.convolve_chunks(blocks)))


def build_report(
    report_type,
    config: DistConfig,
    active: Iterable[int],
    outcome: SpmdOutcome,
    approx: np.ndarray,
    elapsed_s: float,
    **fields,
):
    """The one report builder: measured traffic beside its prediction.

    ``active`` are the job's active sub-domain indices, as the driver
    found them when it cut the blocks (the predictions are of them, so
    the dense field is not scanned again); ``outcome`` is the attempt
    whose ranks are reported; ``approx`` the grid the caller assembled or
    solved.  ``fields`` are the ``report_type``'s own (and ``recovered``).
    """
    results = outcome.results
    wire_totals = merge_wire_snapshots([r.wire for r in results.values()])
    active = list(active)

    def slowest(attr: str) -> float:
        return max((getattr(r, attr) for r in results.values()), default=0.0)

    fields.setdefault("failed_ranks", sorted(outcome.failures))
    return report_type(
        approx=approx,
        config=config,
        elapsed_s=elapsed_s,
        rank_results=results,
        wire_totals=wire_totals,
        exchange_wire_bytes=wire_totals.get("sent.exchange.bytes", 0),
        predicted_value_bytes=_itemsize(config)
        * _per_destination_samples(config, active),
        eq6_value_bytes=expected_exchange_value_bytes(config, active),
        naive_eq6_bytes=naive_eq6_bytes(config),
        input_wire_bytes=wire_totals.get("sent.bcast.bytes", 0),
        predicted_input_bytes=predicted_input_bytes(config, active),
        max_compute_s=slowest("compute_s"),
        max_exchange_s=slowest("exchange_s"),
        max_exchange_hidden_s=slowest("exchange_hidden_s"),
        control_in_bytes=outcome.control_in_bytes,
        control_out_bytes=outcome.control_out_bytes,
        **fields,
    )


def dist_run(
    config: DistConfig,
    field: Optional[np.ndarray] = None,
    spectrum: Optional[np.ndarray] = None,
    clock: Optional[Clock] = None,
) -> DistRunReport:
    """Run the pipeline as a real SPMD job; returns the full report.

    ``field`` defaults to the CLI's composite input for ``config.seed``;
    ``spectrum`` defaults to a Gaussian kernel of width ``config.sigma``,
    which every rank evaluates for itself — no kernel bytes travel; a
    given spectrum must be real and centrosymmetric (paper §3.1), or
    :class:`~repro.errors.ConfigurationError` is raised before any rank
    starts.  ``clock`` is the driver's time source (deadlines and
    ``elapsed_s``).  A job that loses a rank is solved again in process
    (:func:`solve_in_process`) and reported ``recovered``.
    """
    clock = clock if clock is not None else MonotonicClock()
    if spectrum is not None:
        check_hermitian_real(spectrum)
    if field is None:
        field = composite_field(config.n, config.seed)
    field = np.asarray(field, dtype=np.float64)

    t0 = clock.now()
    blocks = list(DomainDecomposition(n=config.n, k=config.k).active_blocks(field))
    outcome = run_spmd(config, blocks, spectrum, clock)
    if outcome.clean:
        approx = assemble_blocks(config, outcome.results)
    else:
        approx = solve_in_process(config, blocks, spectrum)
    return build_report(
        DistRunReport,
        config,
        [sub.index for sub, _block in blocks],
        outcome,
        approx,
        clock.now() - t0,
        recovered=not outcome.clean,
    )
