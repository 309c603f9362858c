"""Checks over the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_import_does_not_load_numpy():
    # The package runs on the standard library: importing it and its CLI,
    # and searching a box and rank slices, must not load numpy.
    code = (
        "import sys, crossvec, crossvec.cli\n"
        "assert crossvec.exists_family(2, 3, 5).found is False\n"
        "assert crossvec.ranked_max_family_size(2, 3).best_size == 4\n"
        "print('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(crossvec.__file__).parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_serial_search_does_not_load_process_pool():
    # The process pool is imported only where workers start, so importing
    # the package and its CLI and running a serial search leave it out.
    code = (
        "import sys, crossvec, crossvec.cli\n"
        "assert crossvec.exists_family(2, 3, 5).found is False\n"
        "print('concurrent.futures.process' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(crossvec.__file__).parent.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_public_names_resolve_and_are_sorted():
    # A name left in __all__ after its object is gone only fails on
    # `from crossvec import *`; check every name here instead.
    missing = [name for name in crossvec.__all__ if not hasattr(crossvec, name)]
    assert not missing, missing
    assert list(crossvec.__all__) == sorted(crossvec.__all__)
    assert len(set(crossvec.__all__)) == len(crossvec.__all__)


def test_benchmark_hooks_resolve():
    # The benchmark's tracer wraps these module attributes by name and
    # reads a graph's size from it; read its list without importing it.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    boundaries = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["BOUNDARIES"]
    )
    assert boundaries
    missing = [
        f"{module}.{attr}"
        for module, attr in boundaries
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, missing
    from crossvec.search import SearchBox, build_compatibility_graph

    graph = build_compatibility_graph(2, SearchBox((2, 2)))
    assert graph.n == 9 and graph.edge_count() == sum(map(int.bit_count, graph.adj)) // 2
