"""Checks over the package source itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_only_core_imports_bisect():
    # The order relation on a coordinate lives in core._relation_table;
    # every other module reads that table rather than bisecting itself.
    importers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "bisect" in names:
                importers.append(path.name)
    assert importers == ["core.py"]


def test_no_recursion_in_posets():
    # Chains, antichains and augmenting paths grow with the poset, so the
    # poset kernels run on explicit stacks: no function in posets.py may
    # call itself, by name or as a method.
    path = Path(crossvec.__file__).parent / "posets.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    recursive = []
    for func in functions:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if name == func.name:
                recursive.append(f"{func.name}:{node.lineno}")
    assert len(functions) > 20
    assert not recursive, recursive


def test_optimized_run_prints_the_same_certificate():
    # Under python -O the witness check still runs, so a search prints
    # the same records, byte for byte, as it does without -O.
    argv = ["-m", "crossvec", "search", "--k", "3", "--w", "3", "--target", "10",
            "--deterministic", "--format", "records"]
    env = {**os.environ, "PYTHONPATH": str(Path(crossvec.__file__).parent.parent)}
    plain, optimized = (
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, timeout=120)
        for flags in ((), ("-O",))
    )
    assert plain.stdout and plain.returncode == 1, plain.stderr
    assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)


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


def test_cli_builds_only_the_subparser_it_runs(monkeypatch, capsys):
    # main builds one subparser when argv names it, and all six for the
    # top-level help; a later edit cannot bring back the full build
    # unnoticed.
    from crossvec import cli

    built = []

    def recorded(name, add_arguments):
        def add(parser):
            built.append(name)
            add_arguments(parser)

        return add

    monkeypatch.setattr(
        cli,
        "_SUBCOMMANDS",
        tuple((name, line, recorded(name, add)) for name, line, add in cli._SUBCOMMANDS),
    )
    assert cli.main(["bound", "--k", "2", "--w", "3"]) == 0
    assert built == ["bound"]
    built.clear()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert built == [name for name, _, _ in cli._SUBCOMMANDS]
    assert len(built) == 6


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
