"""Checks over the package source itself."""

import ast
from pathlib import Path

import crossvec

SOURCES = sorted(Path(crossvec.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so a check written as one does
    # not run there; the package raises instead.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert SOURCES
    assert not found, found
