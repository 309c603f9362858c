"""crossvec benchmark: one workload per run, end-to-end or traced per-layer metrics.

Run from the repository root (the package is imported from ./src):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 1 \\
        --out sweep.json --compare perfbench/baseline/sweep.json

Workloads are described in workloads.py.  A run first times the set-up
(`setup_s`: a fresh interpreter importing crossvec and making the
workload's inputs, median of several trials), then makes passes over
the workload until `--seconds` have gone by, at least one.  With
`--trace 0` it reports the end-to-end metrics of BENCHMARK.json.  Each
time is the sum over its calls of the call's fastest repetition (see
`_fastest`): `wall_s` over every call of a pass, `part1_s`..`part3_s`
over the workload's three call groups.  The times in the JSON line are
at a reference host speed: each pass's call times are scaled by the
speed of two fixed kernels timed just before and after it (see
`HostSpeed`), which takes out slow phases of a shared host.  The table
prints the measured seconds under the groups' own names, then the
scaled metrics; the result file holds both and the speed factors.
With `--trace 1` it makes one untraced pass, then
traced passes, and reports the per-layer metrics of BENCHMARK.json
(median over traced passes); a metric whose entry point
the workload never calls has no value (shown as "-", null in the result
file) and reads 0 in the JSON line, which must carry every metric.

Every answer is checked against its known value.  The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the exit code is nonzero if any check failed.
`--out` writes the full result (environment, provenance, per-pass
samples, exact per-call counters); `--compare` lists every exact
counter that moved against an earlier result file.  A moved counter
means the search did different work (a pruning change); a moved time
with no moved counter is a constant-factor change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_TRIALS = 3

# Runs in a fresh interpreter: import the package, make the inputs, print the time.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.make_inputs(sys.argv[3], int(sys.argv[4]), sys.argv[5] == "1")
print(time.perf_counter() - t0)
"""


def _load_package():
    """Import crossvec from this checkout's src, never from anywhere else."""
    package = SRC / "crossvec"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no crossvec sources at {package}")
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import crossvec

    if Path(crossvec.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported crossvec from {crossvec.__file__}, not {package}")


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, load_at_start) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "seed": args.seed,
        "loadavg_at_start": load_at_start,
        "trace": bool(args.trace),
        "quick": args.quick,
    }


def _setup_seconds(workload: str, seed: int, quick: bool) -> float:
    times = []
    for _ in range(SETUP_TRIALS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, str(seed), "1" if quick else "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def _plain(fn, args, kwargs, label):
    return fn(*args, **kwargs)


def _untraced_pass(workload, inputs):
    import workloads

    p = workloads.Pass(_plain)
    t0 = perf_counter()
    workloads.PASSES[workload](p, inputs)
    return p, perf_counter() - t0


def _traced_pass(workload, inputs):
    import tracing
    import workloads

    tracer = tracing.Tracer()
    with tracer.patched():
        p = workloads.Pass(lambda fn, args, kwargs, label: tracer.call(fn, args, kwargs, label))
        tracer.call(workloads.PASSES[workload], (p, inputs), name=tracing.ROOT)
    return p, tracer.spans


def _median(values):
    # The lower median is one of the samples, so exact counters stay integers.
    values = [v for v in values if v is not None]
    return statistics.median_low(values) if values else None


def _fastest(passes, groups, scale) -> float:
    """Sum over the calls in `groups` of each call's fastest scaled time across passes.

    `scale(i, group)` is pass i's host-speed factor for the group's kind
    of work.  On the shared 2-vCPU VM the benchmark was set up on, other
    tenants slow every call by up to 1.7x, in bursts from well under a
    second to many minutes long.  The speed factor takes out the slow
    phases that outlast a pass; the fastest repetition of a call is the
    estimate the shorter bursts disturb least.
    """
    per_pass = [[t * scale(i, g) for g, t in p.calls if g in groups] for i, p in enumerate(passes)]
    if len({len(ts) for ts in per_pass}) != 1:
        raise RuntimeError(f"passes made different numbers of {groups} calls")
    return sum(min(ts) for ts in zip(*per_pass))


class HostSpeed:
    """How fast the host runs crossvec's two kinds of work right now.

    Two fixed kernels owned by the benchmark stand for them: big-integer
    bit operations like the clique engine's colouring ("py"), and a numpy
    broadcast compare like the graph build and verify ("np"); contention
    slows the two by different amounts.  `factors()` times each a few
    times and returns reference time / median time per kind, so seconds
    x factor is the time at the reference speed.  No crossvec code runs
    in the kernels, so a change to crossvec moves no factor.
    """

    # Median kernel times on the 2-vCPU Intel Xeon VM the benchmark was
    # set up on; they fix the scale only.
    REFERENCE = {"py": 0.0046, "np": 0.0266}
    REPEATS = 7

    def __init__(self):
        import numpy

        self._a = numpy.random.default_rng(0).integers(0, 9, size=(200, 1, 4), dtype=numpy.int32)
        self._b = self._a.reshape(1, 200, 4)

    def _py(self):
        x = full = (1 << 2000) - 1
        for _ in range(20000):
            x ^= x & -x
            x = x or full

    def _np(self):
        for _ in range(10):
            d = self._a - self._b
            int(((d > 0).any(axis=2) & (d < 0).any(axis=2)).sum())

    def factors(self) -> dict[str, float]:
        out = {}
        for kind, kernel in (("py", self._py), ("np", self._np)):
            times = []
            for _ in range(self.REPEATS):
                t0 = perf_counter()
                kernel()
                times.append(perf_counter() - t0)
            out[kind] = self.REFERENCE[kind] / statistics.median(times)
        return out


def _peak_rss_mb() -> float:
    # Linux reports KiB: the benchmark process plus its largest child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def measure(args) -> dict:
    """Run one workload and return the full result (see --out)."""
    import tracing
    import workloads

    load_at_start = os.getloadavg()[0]
    env = _environment(args, load_at_start)
    setup_s = _setup_seconds(args.workload, args.seed, args.quick)
    inputs = workloads.make_inputs(args.workload, args.seed, args.quick)
    parts = workloads.PARTS[args.workload]

    checked = []  # every pass, for the answer checks
    timed, walls, layers, counters = [], [], [], []  # the reported passes
    speed, factors = HostSpeed(), []  # host-speed factors around each reported pass
    if args.trace:
        ref, ref_wall = _untraced_pass(args.workload, inputs)
        checked.append(ref)
    start = perf_counter()
    after = speed.factors()
    while True:
        before = after
        if args.trace:
            p, spans = _traced_pass(args.workload, inputs)
            walls.append(spans[0].duration)
            layers.append(tracing.layer_metrics(spans))
            counters.append(tracing.call_counters(spans))
        else:
            p, wall = _untraced_pass(args.workload, inputs)
            walls.append(wall)
        after = speed.factors()
        factors.append({k: (before[k] + after[k]) / 2 for k in before})
        checked.append(p)
        timed.append(p)
        if perf_counter() - start >= args.seconds:
            break

    # wall_s: the fastest repetition of every call, plus the fastest
    # repetition of the benchmark's own code between calls.
    everything = {None, *(g for p in timed for g, _ in p.calls)}
    own = [wall - sum(t for _, t in p.calls) for p, wall in zip(timed, walls)]
    named = {"setup_s": setup_s, "wall_s": _fastest(timed, everything, lambda i, g: 1.0) + min(own)}
    named["peak_rss_mb"] = _peak_rss_mb()
    for g in parts:
        named[g] = _fastest(timed, {g}, lambda i, g: 1.0)
    for total, members in workloads.SUMS.items():
        if all(m in named for m in members):
            named[total] = sum(named[m] for m in members)
    attempted = sum(p.attempted for p in checked)
    failures = [f for p in checked for f in p.failures]
    named["fail_frac"] = len(failures) / attempted

    main = workloads.KIND[args.workload]

    def scale(i, group):
        return factors[i][workloads.KIND.get(group, main)]

    end_to_end = {
        "setup_s": setup_s,
        "wall_s": _fastest(timed, everything, scale) + min(o * f[main] for o, f in zip(own, factors)),
        "peak_rss_mb": named["peak_rss_mb"],
    }
    for i, g in enumerate(parts, start=1):
        end_to_end[f"part{i}_s"] = _fastest(timed, {g}, scale)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": len(walls),
        "env": env,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "parts": dict(zip((f"part{i}_s" for i in range(1, 4)), parts)),
        "named": named,
        "host_speed": factors,
        "end_to_end": end_to_end,
        "samples": {"wall_s": walls, **{g: [p.group_seconds(g) for p in timed] for g in parts}},
    }
    if args.trace:
        per_layer = {k: _median([m[k] for m in layers]) for k in layers[0]}
        per_layer["trace.overhead_frac"] = _median(walls) / ref_wall - 1
        result["per_layer"] = per_layer
        result["counters"] = counters[0]
        result["counters_repeat"] = all(c == counters[0] for c in counters)
        if not result["counters_repeat"]:
            result["correct"] = False
            result["failures"].append("exact counters differ between traced passes")
            result["failed"] += 1
    return result


def compare(old: dict, new: dict) -> list[str]:
    """Lines listing every exact counter that moved, then the time ratios."""
    lines = []
    if (old.get("workload"), old.get("seed")) != (new.get("workload"), new.get("seed")):
        lines.append(
            f"note: comparing workload {old.get('workload')} seed {old.get('seed')} "
            f"with workload {new.get('workload')} seed {new.get('seed')}"
        )
    oc, nc = old.get("counters") or {}, new.get("counters") or {}
    if not oc or not nc:
        lines.append("note: counters come from traced runs (--trace 1); one side has none")
    moved = []
    for label in sorted(set(oc) | set(nc)):
        a, b = oc.get(label, {}), nc.get(label, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                moved.append(f"counter moved: {label} {key}: {a.get(key)} -> {b.get(key)}")
    lines.extend(moved)
    if oc and nc and not moved:
        lines.append("no counter moved: any time difference is a constant-factor change")
    for section in ("named", "per_layer"):
        o, n = old.get(section) or {}, new.get(section) or {}
        for key in sorted(set(o) & set(n)):
            if o[key] and n[key] is not None:
                lines.append(f"{section} {key}: {o[key]:.6g} -> {n[key]:.6g} ({n[key] / o[key]:.3f}x)")
    return lines


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable table and return the final JSON object."""
    spec = _spec()
    print(
        f"crossvec benchmark: workload={result['workload']} seed={result['seed']} "
        f"seconds={result['seconds']} passes={result['passes']}"
    )
    print("env " + json.dumps(result["env"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in [*result["named"], *result.get("per_layer", ())]:
        units.setdefault(name, "s" if name.endswith("_s") else "frac")
    aliases = {v: k for k, v in result["parts"].items()}
    for name, value in result["named"].items():
        shown = f"{name} ({aliases[name]})" if name in aliases else name
        extra = f"  ({result['failed']}/{result['attempted']})" if name == "fail_frac" else ""
        print(f"  {shown:<38} {value:>14.6g} {units[name]}{extra}")
    print("at the reference host speed:")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<38} {value:>14.6g} {units[name]}")
    metrics = {}
    if trace:
        for name, value in result["per_layer"].items():
            text = "-" if value is None else f"{value:.6g}"
            print(f"  {name:<38} {text:>14} {units[name]}")
        for label, counts in result["counters"].items():
            print(f"  counters {label}: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
        for m in spec["per_layer"]:
            value = result["per_layer"][m["name"]]
            metrics[m["name"]] = {"value": 0 if value is None else value, "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": result["end_to_end"][m["name"]], "unit": m["unit"]}
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("certify", "widebox", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure passes for this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="reduced-size inputs, for smoke tests")
    ap.add_argument("--out", help="write the full result as JSON to this file")
    ap.add_argument("--compare", help="earlier result file (--out) to compare counters with")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _load_package()
    result = measure(args)
    final = report(result, bool(args.trace))
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        for line in compare(old, result):
            print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
