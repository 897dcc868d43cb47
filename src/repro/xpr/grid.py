"""Declarative experiment grids: parameter matrices -> trial specs.

An *experiment* is a named parameter matrix.  Fixed parameters hold one
value for every trial; matrix axes hold a list of values, and the grid
expands into the cartesian product.  Expansion is deterministic — axes
iterate in sorted name order, values in declaration order — so the same
grid always yields the same trial list, in the same order, on every
machine.

Every trial gets a **stable content-hash id**: the SHA-256 of its
canonical parameter JSON (sorted keys, no whitespace), truncated to 12
hex chars.  The id depends only on the parameters, never on the
experiment name, declaration order, or run time, so the trajectory store
can match "the same trial" across grids, branches, and months of
history.

Built-in experiments are registered in :data:`EXPERIMENTS`; ``ref-quick``
is the small reference grid CI runs on every build (see the ``xpr-gate``
job), ``ref-full`` the overnight version of the same sweep.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError

#: Execution modes the trial registry knows how to run.
MODES = ("serial", "parallel", "dist", "serve", "pool")

#: Rank transports valid for ``mode="dist"`` trials.
TRANSPORTS = ("local", "tcp")


def content_id(params: Mapping[str, object]) -> str:
    """Stable 12-hex-char content hash of a flat parameter mapping.

    Canonicalisation is ``json.dumps(sort_keys=True)`` with compact
    separators, so key order and insertion history never leak into the
    id.  Values must be JSON-serialisable (the grid only produces plain
    scalars).
    """
    blob = json.dumps(dict(params), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class TrialSpec:
    """One fully-resolved point of an experiment grid.

    Frozen and built from plain values only (like
    :class:`repro.dist.worker.DistConfig`), so a spec can cross process
    boundaries and hash stably.
    """

    experiment: str
    mode: str = "serial"
    n: int = 32
    k: int = 8
    sigma: float = 2.0
    policy: str = "flat:2"
    transport: str = "local"
    ranks: int = 2
    overlap: bool = False
    window: int = 2
    repeats: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.transport not in TRANSPORTS:
            raise ConfigurationError(
                f"transport must be one of {TRANSPORTS}, got {self.transport!r}"
            )
        for name in ("n", "k", "ranks", "window", "repeats"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"{name} must be a positive int, got {value!r}"
                )
        if self.n % self.k != 0:
            raise ConfigurationError(
                f"k must divide n, got n={self.n} k={self.k}"
            )

    def params(self) -> Dict[str, object]:
        """The trial's identity parameters (everything but the experiment).

        The experiment name is deliberately excluded: two experiments
        declaring the same point share one trial id, so their histories
        line up in the store.
        """
        out = asdict(self)
        del out["experiment"]
        return out

    @property
    def trial_id(self) -> str:
        """Content-hash id of :meth:`params` (see :func:`content_id`)."""
        return content_id(self.params())

    def label(self) -> str:
        """Compact human-readable summary for reports and gate output."""
        parts = [f"mode={self.mode}", f"n={self.n}", f"k={self.k}"]
        if self.mode == "dist":
            parts.append(f"{self.transport}/p{self.ranks}")
            if self.overlap:
                parts.append("overlap")
        if self.mode == "pool":
            parts.append(f"pool/p{self.ranks}")
        return " ".join(parts)


class ExperimentGrid:
    """A named parameter matrix expanding into deterministic trial specs.

    ``matrix`` axes are swept (cartesian product); ``fixed`` parameters
    are shared by every trial.  Any key must be a :class:`TrialSpec`
    field — a typo fails loudly at definition time, not mid-sweep.
    """

    def __init__(
        self,
        name: str,
        matrix: Mapping[str, Sequence[object]] | None = None,
        fixed: Mapping[str, object] | None = None,
    ):
        if not name:
            raise ConfigurationError("experiment grid needs a non-empty name")
        self.name = name
        self.matrix = {k: list(v) for k, v in (matrix or {}).items()}
        self.fixed = dict(fixed or {})
        known = set(TrialSpec.__dataclass_fields__) - {"experiment"}
        for key in (*self.matrix, *self.fixed):
            if key not in known:
                raise ConfigurationError(
                    f"unknown grid parameter {key!r} in experiment "
                    f"{name!r}; known: {sorted(known)}"
                )
        overlap_keys = set(self.matrix) & set(self.fixed)
        if overlap_keys:
            raise ConfigurationError(
                f"parameters {sorted(overlap_keys)} appear in both the "
                f"matrix and fixed sections of experiment {name!r}"
            )
        for key, values in self.matrix.items():
            if not values:
                raise ConfigurationError(
                    f"matrix axis {key!r} of experiment {name!r} is empty"
                )

    def expand(self) -> List[TrialSpec]:
        """All trials of the grid, in deterministic sweep order."""
        axes = sorted(self.matrix)
        combos = itertools.product(*(self.matrix[a] for a in axes))
        trials = []
        for combo in combos:
            params = dict(self.fixed)
            params.update(zip(axes, combo))
            trials.append(TrialSpec(experiment=self.name, **params))
        return trials


#: Built-in experiments: name -> tuple of grids (concatenated on expand).
EXPERIMENTS: Dict[str, Tuple[ExperimentGrid, ...]] = {}


def define_experiment(name: str, *grids: ExperimentGrid) -> None:
    """Register ``grids`` under ``name`` (replacing any prior definition)."""
    if not grids:
        raise ConfigurationError(f"experiment {name!r} needs >= 1 grid")
    EXPERIMENTS[name] = tuple(grids)


def experiment_names() -> List[str]:
    """Sorted names of every registered experiment."""
    return sorted(EXPERIMENTS)


def expand_experiment(name: str) -> List[TrialSpec]:
    """Expand a registered experiment into its deduplicated trial list.

    Trials are deduplicated by trial id (first occurrence wins) so
    overlapping grids never run the same point twice in one sweep.
    """
    if name not in EXPERIMENTS:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {experiment_names()}"
        )
    seen = set()
    trials = []
    for grid in EXPERIMENTS[name]:
        for spec in grid.expand():
            if spec.trial_id not in seen:
                seen.add(spec.trial_id)
                trials.append(spec)
    return trials


# The CI reference grid: one trial per execution mode at the dist bench
# shape (n=32, k=8, flat:2), plus the streamed-exchange A/B on the local
# transport.  Small enough for every build, wide enough that a
# regression in any of the four subsystems (core, parallel, dist,
# serve) moves a gated metric.
define_experiment(
    "ref-quick",
    ExperimentGrid(
        "ref-quick",
        matrix={"mode": ["serial", "parallel", "serve"]},
        fixed={"n": 32, "k": 8, "policy": "flat:2", "repeats": 2},
    ),
    ExperimentGrid(
        "ref-quick",
        matrix={"overlap": [False, True]},
        fixed={
            "mode": "dist",
            "n": 32,
            "k": 8,
            "policy": "flat:2",
            "transport": "local",
            "ranks": 2,
            "repeats": 2,
        },
    ),
    # The standing-pool trial: a rendezvous-bootstrapped 2-rank TCP mesh
    # runs the job twice, so the gate watches both correctness (bitwise,
    # wire/model) and pool warmth (warm resubmission must not rebuild
    # plans).
    ExperimentGrid(
        "ref-quick",
        fixed={
            "mode": "pool",
            "n": 32,
            "k": 8,
            "policy": "flat:2",
            "transport": "tcp",
            "ranks": 2,
            "repeats": 1,
        },
    ),
)

# The overnight sweep: the full transport x ranks x overlap matrix at
# the paper's reference shape, plus the serial/parallel/serve modes.
define_experiment(
    "ref-full",
    ExperimentGrid(
        "ref-full",
        matrix={"mode": ["serial", "parallel", "serve"]},
        fixed={"n": 64, "k": 16, "policy": "flat:2", "repeats": 3},
    ),
    ExperimentGrid(
        "ref-full",
        matrix={
            "transport": ["local", "tcp"],
            "ranks": [1, 2, 4],
            "overlap": [False, True],
        },
        fixed={
            "mode": "dist",
            "n": 32,
            "k": 8,
            "policy": "flat:2",
            "repeats": 3,
        },
    ),
)
