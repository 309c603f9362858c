"""Tests of the benchmark itself, on reduced-size workloads.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._load_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# Per-layer metrics that partition the traced wall time between them.
SELF_TIME_METRICS = (
    "search.build_s",
    "search.self_s",
    "clique.s",
    "core.verify_s",
    "core.io_s",
    "constructions.s",
    "posets.max_antichains_s",
    "posets.width_s",
    "posets.is_lattice_s",
    "posets.reduce_s",
    "bounds.s",
    "cli.self_s",
)


def _run(capsys, workload, trace=0):
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--quick"]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(capsys, workload, trace):
    code, final, _ = _run(capsys, workload, trace)
    assert code == 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(final["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = final["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_sum_to_traced_wall(workload):
    inputs = workloads.make_inputs(workload, 5, quick=True)
    t0 = perf_counter()
    _, spans = run._traced_pass(workload, inputs)
    wall = perf_counter() - t0
    metrics = tracing.layer_metrics(spans)
    layers = sum(metrics[name] or 0.0 for name in SELF_TIME_METRICS)
    # Layer self times plus the benchmark's own code cover the traced
    # pass; what is left is tracing overhead outside the root span.
    assert abs(layers + metrics["bench.self_s"] - wall) <= 0.02 * wall + 0.005
    assert metrics["bench.self_s"] < 0.2 * wall


def test_wrong_expected_answer_fails_the_run(capsys, monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED, "f(2,2)", 3)
    code, final, lines = _run(capsys, "certify")
    assert code != 0
    assert final["correct"] is False and final["failed"] >= 1
    assert any(line.startswith("FAILED: f(2,2)") for line in lines)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_compare_lists_every_moved_counter():
    old = {
        "workload": "certify",
        "seed": 1,
        "counters": {"f(3,3) refute 10": {"clique.nodes": 399613, "search.edges": 164781}},
    }
    new = json.loads(json.dumps(old))
    assert run.compare(old, new) == [
        "no counter moved: any time difference is a constant-factor change"
    ]
    new["counters"]["f(3,3) refute 10"]["clique.nodes"] = 148853
    assert run.compare(old, new) == [
        "counter moved: f(3,3) refute 10 clique.nodes: 399613 -> 148853"
    ]


def test_fastest_scales_each_pass_before_taking_the_minimum():
    slow, fast = workloads.Pass(None), workloads.Pass(None)
    slow.calls = [("a", 2.0), (None, 1.0), ("a", 4.0)]
    fast.calls = [("a", 1.5), (None, 1.0), ("a", 3.5)]
    factors = [0.5, 1.0]  # the first pass ran at half the reference speed
    assert run._fastest([slow, fast], {"a"}, lambda i, g: 1.0) == 1.5 + 3.5
    assert run._fastest([slow, fast], {"a"}, lambda i, g: factors[i]) == 1.0 + 2.0
