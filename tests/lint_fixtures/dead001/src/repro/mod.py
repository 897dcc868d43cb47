"""DEAD001 fixture: five definitions nothing reaches, and the exemptions."""

import ast

from repro.registry import REGISTRY


def unreferenced_function():
    """Flagged: named nowhere else."""
    return unreferenced_function  # its own body does not keep it alive


class UnreferencedClass:
    """Flagged: named nowhere else."""


def only_reexported():
    """Flagged: only the package __init__ imports and lists it."""


def only_in_tests():
    """Flagged: only a file under tests/ calls it."""


class Used:
    """Silent: user.py builds one."""

    def __repr__(self):
        return "Used()"  # silent: dunder

    def used_method(self):
        """Silent: user.py calls it."""

    def unreferenced_method(self):
        """Flagged: nothing calls it."""


@REGISTRY.register("runner")
def registered_runner():
    """Silent: reached through its decorator."""


class BaseVisitor(ast.NodeVisitor):
    """Silent: user.py walks a tree with it."""

    def visit_Name(self, node):
        """Silent: ast.NodeVisitor dispatches it by name."""


class SubVisitor(BaseVisitor):
    """Silent: user.py walks a tree with it."""

    def visit_Call(self, node):
        """Silent: a NodeVisitor subclass two levels down."""


def oracle():  # repro-lint: disable=DEAD001 oracle of tests/uses_only_here.py
    """Silent: a test oracle with a reasoned suppression."""


def used_by_benchmark():
    """Silent: benchmarks/driver.py calls it."""
