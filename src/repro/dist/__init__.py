"""Real multi-process rank runtime with a wire-level sparse exchange.

The one communication stack: this package runs the low-communication
pipeline, and the traditional FFT convolution it is compared with, as real
SPMD jobs — one OS process (or thread) per rank, actual bytes crossing an
actual transport — so the paper's communication claim (one sparse
accumulation exchange instead of 2–3 all-to-alls, Eq 1 → Eq 6) is
*measured*, not modeled.  :mod:`repro.cluster` holds the cost models
evaluated on what its ledgers count.

Layers, bottom up:

- :mod:`repro.dist.wire` — length-prefixed framed messages (magic,
  version, kind, source rank, tag, payload) with typed truncation errors.
- :mod:`repro.dist.ledger` — :class:`WireLedger`: every frame's actual
  bytes-on-wire counted per traffic category, built on the
  :mod:`repro.util.metrics` counter/histogram types.
- :mod:`repro.dist.transport` / :mod:`repro.dist.tcp` — pluggable
  transports: :class:`LocalTransport` (in-process loopback queues, fully
  deterministic, fault-injectable) and :class:`TcpTransport` (full-mesh
  localhost sockets).
- :mod:`repro.dist.heartbeat` — liveness tracking for rank-failure
  detection.
- :mod:`repro.dist.collectives` — :class:`Communicator`: tagged
  point-to-point plus ``broadcast`` / ``scatter`` / ``alltoall`` /
  ``sparse_allgather``.
- :mod:`repro.dist.inputs` — input distribution: each rank is scattered
  only the ``k^3`` blocks it convolves, and the driver names kernels by
  content key, sending one only to a rank whose table lacks it.
- :mod:`repro.dist.worker` — what one rank executes: warm
  pruned-plan local convolutions of its round-robin sub-domains, octree
  compression, values-only exchange frames through the wire — each peer
  sent only the values of the cells that touch its boxes — and block
  accumulation (bitwise identical to ``run_serial``).
- :mod:`repro.dist.jobs` / :mod:`repro.dist.agent` — the rank process:
  one job with exact per-job ledgers inside the ``form`` / ``mesh`` /
  ``job`` control loop a cold rank and a standing pool agent both serve.
- :mod:`repro.dist.runtime` — the job driver: rank threads for ``local``
  (:func:`~repro.dist.runtime.run_local`, a harness for any per-rank
  body); for ``tcp``, processes forked for one job and driven by the mesh
  formation, dispatch and reply-draining :mod:`repro.pool` also calls.
- :mod:`repro.dist.traditional` — the Fig 1(a) baseline: slab and pencil
  distributed FFT convolution, every transpose one ``alltoall``.
- :mod:`repro.dist.launcher` — :func:`dist_run`: the front door; survives
  a rank death by solving the job again in process, cross-validates
  measured wire bytes against the exact per-destination count, and
  reports the paper's Eq 6 allgather count beside it.

``python -m repro dist-run --ranks 4 --transport tcp`` runs the whole
thing end to end.
"""

from repro.dist.collectives import Communicator, StreamedAllgather
from repro.dist.launcher import (
    DistRunReport,
    assemble_blocks,
    dist_run,
    expected_exchange_value_bytes,
    predicted_input_bytes,
    solve_in_process,
)
from repro.dist.ledger import WireLedger, merge_wire_snapshots, sent_wire_bytes
from repro.dist.transport import LocalFabric, LocalTransport, SendWindow, Transport
from repro.dist.tcp import TcpTransport, normalize_endpoints
from repro.dist.wire import Frame, FrameKind
from repro.dist.worker import DistConfig, RankResult, composite_field

__all__ = [
    "Communicator",
    "DistConfig",
    "DistRunReport",
    "Frame",
    "FrameKind",
    "LocalFabric",
    "LocalTransport",
    "RankResult",
    "SendWindow",
    "StreamedAllgather",
    "TcpTransport",
    "Transport",
    "WireLedger",
    "assemble_blocks",
    "composite_field",
    "dist_run",
    "expected_exchange_value_bytes",
    "merge_wire_snapshots",
    "normalize_endpoints",
    "predicted_input_bytes",
    "sent_wire_bytes",
    "solve_in_process",
]
