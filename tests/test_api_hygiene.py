"""API-surface hygiene: docstrings everywhere, exports resolvable, no
import cycles.  A library release gate, enforced as tests."""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.util",
    "repro.fft",
    "repro.cluster",
    "repro.octree",
    "repro.kernels",
    "repro.core",
    "repro.massif",
    "repro.baselines",
    "repro.serve",
    "repro.dist",
    "repro.analysis",
]


def _iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                if info.name == "__main__":
                    continue  # importing it would execute the CLI
                yield importlib.import_module(f"{pkg_name}.{info.name}")


ALL_MODULES = list(_iter_modules())


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), (
        f"{module.__name__} lacks a module docstring"
    )


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_callables_documented(module):
    """Every public function/class defined in the library is documented."""
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if (getattr(obj, "__module__", "") or "").startswith("repro"):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, (
        f"{module.__name__}: undocumented public items {undocumented}"
    )


@pytest.mark.parametrize(
    "pkg_name",
    [p for p in PACKAGES if p != "repro.util"],
    ids=str,
)
def test_all_exports_resolve(pkg_name):
    """Everything in __all__ is importable from the package."""
    pkg = importlib.import_module(pkg_name)
    for name in getattr(pkg, "__all__", []):
        assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"


#: the library proper, bottom-up; nothing here may know about a runtime
LOWER_LAYERS = (
    "util", "fft", "octree", "kernels", "cluster", "core", "massif",
    "baselines",
)
#: the runtimes and front ends built on top of it
UPPER_LAYERS = ("dist", "pool", "serve")
#: (importing packages, packages they may not import): the library knows
#: no runtime, the rank runtime does not know the standing pool that is
#: one use of it, and neither knows the serving tier built on both
LAYERING = (
    (LOWER_LAYERS, UPPER_LAYERS),
    (("dist",), ("pool",)),
    (("dist", "pool"), ("serve",)),
)


def test_lower_layers_do_not_import_runtimes():
    """No package imports one that sits above it (see ``LAYERING``).

    An AST scan, so function-level imports (the way a cycle usually gets
    papered over) count too.
    """
    root = Path(repro.__file__).parent
    offenders = []
    for layers, above in LAYERING:
        banned = tuple(f"repro.{name}." for name in above)
        for layer in layers:
            for path in sorted((root / layer).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom) and node.level == 0:
                        names = [node.module]
                    else:
                        continue
                    offenders += [
                        f"{path.relative_to(root)}:{node.lineno} imports {name}"
                        for name in names
                        if f"{name}.".startswith(banned)
                    ]
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "package, foreign",
    [
        ("repro.dist", ("repro.serve",)),
        ("repro.serve", ("repro.dist", "repro.pool")),
    ],
    ids=["repro.dist", "repro.serve"],
)
def test_import_loads_no_foreign_runtime(package, foreign):
    """What importing a runtime actually loads, in a fresh interpreter:
    the rank runtime pulls in no serving tier, and the serving tier
    defers the pool until a pool-backed server runs a job."""
    code = (
        f"import sys, {package}; "
        f"print(sorted(m for m in sys.modules if m.startswith({foreign!r})))"
    )
    src = str(Path(repro.__file__).parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


def _imports(path):
    """``(line, module, imported name or None)`` for every absolute import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                yield node.lineno, node.module, alias.name


def test_use_cases_reach_the_stages_through_the_plan():
    """``massif/`` runs the staged transform through
    ``LocalConvolution`` / ``PrunedPlan``: importing a stage primitive
    (``partial_idft``, ``zstage_batch``, ``rslab_from_subcube``, ...) is how
    a hand copy of the pipeline starts."""
    from repro.fft import pruned

    root = Path(repro.__file__).parent
    offenders = []
    for path in sorted((root / "massif").rglob("*.py")):
        for lineno, module, name in _imports(path):
            direct = module == "repro.fft.pruned"
            via_package = module == "repro.fft" and hasattr(pruned, name or "")
            if direct or via_package:
                offenders.append(
                    f"{path.relative_to(root)}:{lineno} imports "
                    f"{module}.{name or '*'}"
                )
    solver = root / "massif" / "lowcomm_solver.py"
    offenders += [
        f"massif/lowcomm_solver.py:{lineno} imports {module}"
        for lineno, module, _name in _imports(solver)
        if f"{module}.".startswith("repro.fft.")
    ]
    assert not offenders, "\n".join(offenders)


#: packages whose public API once carried an FFT-library choice
ONE_FFT_PACKAGES = (
    "repro.fft", "repro.core", "repro.massif", "repro.baselines", "repro.serve",
)
#: the names that choice went by (the serve executor seam's ``PoolBackend``
#: and ``--backend pool://`` name a class and a URL, not a parameter)
FFT_CHOICE_NAMES = {"backend", "backend_name"}


def _public_callables(module):
    """``(qualified name, callable)`` for the public functions, classes
    (whose signature is their constructor's) and methods ``module``
    defines."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def test_one_fft_no_backend_knob():
    """There is one FFT (:mod:`numpy.fft`): no public signature or dataclass
    field may offer a choice of another, and ``repro.fft`` exports no
    registry."""
    offenders = []
    for module in ALL_MODULES:
        if not module.__name__.startswith(ONE_FFT_PACKAGES):
            continue
        for qualname, obj in _public_callables(module):
            try:
                params = set(inspect.signature(obj).parameters)
            except (TypeError, ValueError):
                params = set()
            if dataclasses.is_dataclass(obj):
                params |= {f.name for f in dataclasses.fields(obj)}
            offenders += [
                f"{module.__name__}.{qualname}({name})"
                for name in sorted(params & FFT_CHOICE_NAMES)
            ]
    assert not offenders, "\n".join(offenders)
    fft_all = importlib.import_module("repro.fft").__all__
    registry = [name for name in fft_all if "backend" in name.lower()]
    assert not registry, registry


def test_version_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") >= 1


def test_errors_hierarchy():
    """All library exceptions derive from ReproError."""
    from repro import errors

    for name, obj in vars(errors).items():
        if inspect.isclass(obj) and issubclass(obj, Exception):
            if obj is not errors.ReproError:
                assert issubclass(obj, errors.ReproError), name
