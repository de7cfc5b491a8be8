"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treestab"


def test_no_assert_statements():
    """`python -O` strips `assert`, so every check in the package must
    raise explicitly."""
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found
