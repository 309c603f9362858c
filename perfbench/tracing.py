"""Spans around crossvec's layer boundaries and the per-layer metrics made from them.

The tracer wraps two kinds of call: the benchmark's own calls into the
package, and the module attributes through which one crossvec layer
calls another (`BOUNDARIES`).  Private helpers are not wrapped, so work
they do shows as self time of the public function that called them.
Each span records its name (`<layer>.<function>`), the benchmark's call
label, start, end, parent and counts read from the call's result.  Spans
stay in memory until the run ends.

A span's self time is its duration minus the durations of its children.
Every span name belongs to exactly one time bucket (`_bucket`), so the
buckets partition the traced wall time; `bench.self_s` is the part spent
in the benchmark's own code (answer checks, loops).
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass, field
from time import perf_counter

from workloads import LARGE

# Module attributes through which one layer calls another.
BOUNDARIES = (
    ("crossvec.search", "build_compatibility_graph"),
    ("crossvec.search", "max_clique"),
    ("crossvec.search", "max_clique_parallel"),
    ("crossvec.search", "verify"),
    ("crossvec.constructions", "verify"),
    ("crossvec.posets", "verify"),
    ("crossvec.bounds", "verify"),
    ("crossvec.cli", "max_family_size"),
    ("crossvec.cli", "exists_family"),
    ("crossvec.cli", "max_family_in_box"),
    ("crossvec.cli", "ranked_max_family_size"),
    ("crossvec.cli", "verify"),
    ("crossvec.cli", "family_to_text"),
)

ROOT = "bench.pass"


def _verify_counts(args, report):
    pairs = report.size * (report.size - 1) // 2
    return {"pairs": pairs, "large_pairs" if report.size >= LARGE else "small_pairs": pairs}


def _clique_counts(args, res):
    return {"nodes": res.nodes, "truncated": int(res.truncated)}


def _graph_counts(args, graph):
    return {"vertices": graph.n, "edges": graph.edge_count(), "adj_bytes": graph.n * graph.n / 8}


COUNTERS = {
    "search.build_compatibility_graph": _graph_counts,
    "clique.max_clique": _clique_counts,
    "clique.max_clique_parallel": _clique_counts,
    "core.verify": _verify_counts,
    "core.family_to_text": lambda args, text: {"bytes": len(text)},
    "core.family_from_text": lambda args, fam: {"bytes": len(args[0])},
    "posets.max_antichains": lambda args, lat: {"members": lat.size},
}


def _construction_counts(args, result):
    return {"vectors": len(result) if hasattr(result, "vectors") else 1}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@dataclass
class Span:
    name: str
    label: str | None
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; `patched()` installs the boundary wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, fn, args=(), kwargs=None, label=None, name=None):
        name = name or span_name(fn)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, label, parent, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span.end = perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("constructions."):
            counter = _construction_counts
        if counter is not None:
            span.counts = counter(args, result)
        return result

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, attr in BOUNDARIES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def _wrapper(self, fn):
        def traced(*args, **kwargs):
            return self.call(fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced


def _bucket(name: str) -> str:
    layer, func = name.split(".", 1)
    if name == ROOT:
        return "bench.self_s"
    if name == "search.build_compatibility_graph":
        return "search.build_s"
    if name in ("core.family_to_text", "core.family_from_text"):
        return "core.io_s"
    if name == "core.verify":
        return "core.verify_s"
    if layer == "posets":
        return {
            "max_antichains": "posets.max_antichains_s",
            "lattice_width_witness": "posets.width_s",
            "is_lattice": "posets.is_lattice_s",
            "reduce_to_vectors": "posets.reduce_s",
        }[func]
    return {
        "search": "search.self_s",
        "clique": "clique.s",
        "constructions": "constructions.s",
        "bounds": "bounds.s",
        "cli": "cli.self_s",
    }[layer]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per bucket; the buckets sum to the root spans' durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        b = _bucket(s.name)
        out[b] = out.get(b, 0.0) + s.duration - child[i]
    return out


def _rate(count, seconds):
    return count / seconds if count is not None and seconds else None


def layer_metrics(spans: list[Span]) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None where nothing was called."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(spans_, key=None):
        if not spans_:
            return None
        return sum(s.counts.get(key, 0) for s in spans_) if key else sum(s.duration for s in spans_)

    def own(bucket, spans_):
        return selfs.get(bucket) if spans_ else None

    builds = calls("search.build_compatibility_graph")
    cliques = calls("clique.max_clique", "clique.max_clique_parallel")
    par = calls("clique.max_clique_parallel")
    verifies = calls("core.verify")
    ios = calls("core.family_to_text", "core.family_from_text")
    cons = [s for s in spans if s.name.startswith("constructions.")]
    bounds = [s for s in spans if s.name.startswith("bounds.")]
    clis = [s for s in spans if s.name.startswith("cli.")]
    searches = [s for s in spans if s.name.startswith("search.") and s.name != "search.build_compatibility_graph"]
    lats = calls("posets.max_antichains")

    def tier(key):
        # Pairs and time of the verify calls in one tier, large or small.
        spans_ = [s for s in verifies if key in s.counts]
        return _rate(total(spans_, key), total(spans_))

    m = {
        "search.build_s": total(builds),
        "search.build_calls": len(builds) if builds else None,
        "search.vertices": total(builds, "vertices"),
        "search.edges": total(builds, "edges"),
        "search.vertices_per_s": _rate(total(builds, "vertices"), total(builds)),
        "search.adj_mb": max(s.counts["adj_bytes"] for s in builds) / 2**20 if builds else None,
        "search.self_s": own("search.self_s", searches),
        "clique.s": total(cliques),
        "clique.calls": len(cliques) if cliques else None,
        "clique.nodes": total(cliques, "nodes"),
        "clique.nodes_per_s": _rate(total(cliques, "nodes"), total(cliques)),
        "clique.par_s": total(par),
        "clique.par_nodes": total(par, "nodes"),
        "clique.truncated": total(cliques, "truncated"),
        "core.verify_s": total(verifies),
        "core.verify_calls": len(verifies) if verifies else None,
        "core.verify_pairs": total(verifies, "pairs"),
        "core.verify_large_pairs_per_s": tier("large_pairs"),
        "core.verify_small_pairs_per_s": tier("small_pairs"),
        "core.io_s": total(ios),
        "core.io_bytes": total(ios, "bytes"),
        "constructions.s": own("constructions.s", cons),
        "constructions.vectors": total(cons, "vectors"),
        "constructions.vectors_per_s": _rate(total(cons, "vectors"), own("constructions.s", cons)),
        "posets.max_antichains_s": total(lats),
        "posets.lattice_members": total(lats, "members"),
        "posets.width_s": own("posets.width_s", calls("posets.lattice_width_witness")),
        "posets.is_lattice_s": own("posets.is_lattice_s", calls("posets.is_lattice")),
        "posets.reduce_s": own("posets.reduce_s", calls("posets.reduce_to_vectors")),
        "bounds.s": own("bounds.s", bounds),
        "bounds.calls": len(bounds) if bounds else None,
        "cli.s": total(clis),
        "cli.self_s": own("cli.self_s", clis),
        "bench.self_s": selfs.get("bench.self_s"),
    }
    return m


def call_counters(spans: list[Span]) -> dict[str, dict[str, int]]:
    """Exact counters per benchmark call label, summed over each call's subtree."""
    owner: list[str | None] = []
    out: dict[str, dict[str, int]] = {}
    keys = {"nodes": "clique.nodes", "vertices": "search.vertices", "edges": "search.edges",
            "pairs": "core.verify_pairs", "members": "posets.lattice_members",
            "vectors": "constructions.vectors"}
    for s in spans:
        label = s.label if s.label is not None else (owner[s.parent] if s.parent is not None else None)
        owner.append(label)
        if label is None:
            continue
        for key, metric in keys.items():
            if key in s.counts:
                d = out.setdefault(label, {})
                d[metric] = d.get(metric, 0) + s.counts[key]
    return out
