"""Program code that reaches the fixture's live definitions."""

import ast

from repro.mod import BaseVisitor, SubVisitor, Used


def _main():
    Used().used_method()
    tree = ast.parse("f(x)")
    BaseVisitor().visit(tree)
    SubVisitor().visit(tree)
