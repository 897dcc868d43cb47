"""NDA001: docstring dtype/shape contracts contradicted by the body.

The numeric core promises bitwise identities (``run_serial`` == the
dist runtime == the rank pool), which makes declared dtypes part of
the correctness contract: a function whose docstring pledges ``float64``
but whose body returns ``.astype(np.float32)`` silently halves precision
for every caller that trusted the docs — and no shape-checking test
catches it.

For every function in a ``core/`` or ``fft/`` directory this rule
cross-checks the *declared* return contract against the *returned*
expression:

- **dtype**: the contract is the single dtype name
  (``float32``/``float64``/``complex64``/``complex128``/``int32``/
  ``int64``) mentioned in the docstring's Returns section (or in a
  sentence containing "return"); the body contradicts it when a
  ``return`` expression ends in ``.astype(<other>)`` or passes
  ``dtype=<other>`` to its outermost call.
- **shape**: when the Returns text declares a tuple shape like
  ``(n, n, n)``, a returned ``.reshape(...)`` with a different arity, or
  a returned ``.ravel()``/``.flatten()`` against a multi-dimensional
  contract, is a contradiction.

Docstrings that declare no single unambiguous contract are out of scope
— this rule only fires when both sides are explicit and disagree.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules.base import Rule

_DTYPES = ("float32", "float64", "complex64", "complex128", "int32", "int64")
_DTYPE_RE = re.compile(r"\b(" + "|".join(_DTYPES) + r")\b")
#: A literal shape tuple in prose, e.g. ``(n, n, n)`` or ``(k, k)``.
_SHAPE_RE = re.compile(r"\(\s*[nNkKmMpP0-9]+(\s*,\s*[nNkKmMpP0-9]+)+\s*\)")
_SCOPE_DIRS = frozenset({"core", "fft"})


def _returns_text(docstring: str) -> str:
    """The portion of a docstring that talks about the return value."""
    match = re.search(r"^\s*Returns\s*$", docstring, re.MULTILINE)
    if match:
        return docstring[match.start() :]
    return "\n".join(
        line
        for line in docstring.splitlines()
        if re.search(r"\breturn", line, re.IGNORECASE)
    )


def _declared_dtype(docstring: str) -> Optional[str]:
    """The single dtype the docstring pledges for the return value."""
    found = set(_DTYPE_RE.findall(_returns_text(docstring)))
    return found.pop() if len(found) == 1 else None


def _declared_ndim(docstring: str) -> Optional[int]:
    """Dimensionality of the single shape tuple pledged, if any."""
    matches = _SHAPE_RE.findall(_returns_text(docstring))
    if len(matches) != 1:
        return None
    full = _SHAPE_RE.search(_returns_text(docstring)).group(0)
    return full.count(",") + 1


def _dtype_of_node(node: ast.expr) -> Optional[str]:
    """dtype name from ``np.float32`` / ``"float32"`` style expressions."""
    if isinstance(node, ast.Attribute) and node.attr in _DTYPES:
        return node.attr
    if isinstance(node, ast.Constant) and node.value in _DTYPES:
        return node.value
    return None


def _returned_dtype(expr: ast.expr) -> Optional[ast.Call]:
    """The call fixing the returned dtype (astype/dtype=), if explicit."""
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    if isinstance(func, ast.Attribute) and func.attr == "astype" and expr.args:
        if _dtype_of_node(expr.args[0]) is not None:
            return expr
    for kw in expr.keywords:
        if kw.arg == "dtype" and _dtype_of_node(kw.value) is not None:
            return expr
    return None


def _call_dtype(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "astype" and call.args:
        return _dtype_of_node(call.args[0])
    for kw in call.keywords:
        if kw.arg == "dtype":
            found = _dtype_of_node(kw.value)
            if found is not None:
                return found
    raise AssertionError("caller checked _returned_dtype first")


class NumpyContractRule(Rule):
    """NDA001: returned dtype/shape must match the documented contract."""

    rule_id = "NDA001"
    description = "docstring dtype/shape contracts match the returned value"

    def check_file(self, ctx: FileContext) -> List[Finding]:
        """Cross-check every documented function in core/ and fft/."""
        if not any(part in _SCOPE_DIRS for part in ctx.parts):
            return []
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            doc = ast.get_docstring(node)
            if not doc:
                continue
            declared = _declared_dtype(doc)
            ndim = _declared_ndim(doc)
            if declared is None and ndim is None:
                continue
            for ret in ast.walk(node):
                if not isinstance(ret, ast.Return) or ret.value is None:
                    continue
                findings.extend(
                    self._check_return(ctx, node.name, ret, declared, ndim)
                )
        return findings

    def _check_return(
        self,
        ctx: FileContext,
        func_name: str,
        ret: ast.Return,
        declared: Optional[str],
        ndim: Optional[int],
    ) -> List[Finding]:
        findings: List[Finding] = []
        expr = ret.value
        if declared is not None:
            call = _returned_dtype(expr)
            if call is not None:
                actual = _call_dtype(call)
                if actual != declared:
                    findings.append(
                        self.finding(
                            ctx,
                            ret,
                            f"'{func_name}' docstring declares a {declared} "
                            f"return but this return forces {actual} — fix "
                            "the conversion or the contract",
                        )
                    )
        if ndim is not None and isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute):
                if func.attr in ("ravel", "flatten") and ndim > 1:
                    findings.append(
                        self.finding(
                            ctx,
                            ret,
                            f"'{func_name}' docstring declares a {ndim}-D "
                            f"shape but this return flattens to 1-D via "
                            f".{func.attr}()",
                        )
                    )
                elif func.attr == "reshape":
                    args = expr.args
                    if len(args) == 1 and isinstance(
                        args[0], (ast.Tuple, ast.List)
                    ):
                        arity = len(args[0].elts)
                    else:
                        arity = len(args)
                    if arity and arity != ndim:
                        findings.append(
                            self.finding(
                                ctx,
                                ret,
                                f"'{func_name}' docstring declares a "
                                f"{ndim}-D shape but this return reshapes "
                                f"to {arity}-D",
                            )
                        )
        return findings
