"""Exact search for maximum families via reduction to maximum clique.

Both defining constraints (pairwise incomparability, pairwise
non-crossing) are symmetric predicates on pairs, so the verifying
families inside a finite box are exactly the cliques of a compatibility
graph on the box's lattice points: vertices are points, edges join pairs
that are 1-crossing but not ks-crossing.  An exhaustive clique search
over a box therefore decides in-box existence outright; what makes the
answer global is a complete box.

Box completeness.  `normalize` shifts each coordinate's attained values
so the minimum is 0 and caps every gap between consecutive attained
values at that coordinate's threshold.  Capping preserves all pairwise
relations: a difference that met a threshold t <= ks[i] still meets it
(either some single gap was capped to exactly ks[i], or no gap between
the two values was capped at all), and sub-threshold differences are
untouched, as are signs.  Hence every verifying family of size m has a
relation-identical copy inside [0, max(ks) * (m-1)]^w, and refuting
size m over that auto-derived box refutes it over all of Z^w.  Since
the box for target m contains the boxes for all smaller targets, a
completed search also certifies the in-box maximum as the global one.

For a uniform threshold there is a much smaller complete box:
`compress` drives every vector to level 0 on one coordinate along
short/long-edge paths of the cross digraph, and at its fixpoint the
attained values on that coordinate form an integer interval starting at
0 (a path from level s > 0 to level 0 must step through s - 1, because
only unit steps descend).  Compression touches one coordinate at a
time, so applying it to each coordinate in turn puts any size-m family
inside [0, m-1]^w while staying verifying; see `compression_box`.

Constant-rank search uses a third completeness argument: translate a
ranked verifying family so every coordinate minimum is 0.  If some
value V >= k were attained on coordinate i, pair its vector u with a
vector v at 0 on i; equal ranks force the other w - 1 coordinates of
v - u to sum to V, so one of them is >= V / (w-1), and avoiding a
k-crossing against u[i] - v[i] = V >= k caps that at k - 1.  Hence all
values are at most (w-1)(k-1) and ranked search over all rank slices of
[0, (w-1)(k-1)]^w is exhaustive.

Graph build.  Both edge predicates are functions of the difference
d = q - p alone: p and q are 1-crossing iff d has a positive and a
negative coordinate, and ks-crossing iff some d[i] >= ks[i] while some
d[j] <= -ks[j].  So one boolean table T over the differences
[-L_i, L_i] of a box with limits L holds every adjacency bit, and
vertex p's row is the window T[L - p : 2L - p + 1]: read in
lexicographic order, that window lists the bits for q = 0..L in vertex
order.  The builder computes T once per graph and copies the windows
of a block of rows at a time (never an n x n matrix).  A rank slice
keeps a small part of each window, so its rows are read straight from
the flattened table at index base(p) + offset(q) for the slice's q,
never through a full box row.  Each row is packed into an int bitmask.
The table's prod(2 L_i + 1) bytes and the n^2/8 bytes of adjacency both
count against the memory budget, and the deadline is checked between
row blocks, so `time_limit` covers the build.

Symmetry pruning.  The clique engine branches on the minimum vertex, so
roots can soundly be restricted to vertices that can be the
lexicographically least member of some normalized image of a maximum
family: normalization gives every coordinate minimum 0, so the least
member has first coordinate 0; and for a uniform threshold on a cubical
box, permuting coordinates is a graph automorphism, so the least member
of the lexicographically least image is a nondecreasing tuple.

Zero covers.  Every search box has lower limit 0 on each coordinate, so
subtracting each coordinate's minimum maps a family in the box to one
still in the box that takes the value 0 on every coordinate; it has the
same size and, since both edge predicates depend only on differences,
it is again a clique.  The clique engine is therefore given one cover
per coordinate, the vertices at 0 there, and searches only cliques that
meet all of them, cutting a branch once some cover it does not meet yet
has no vertex left among the candidates.  This composes with the root
restriction: translate first, then permute the coordinates; a
permutation keeps "0 on every coordinate", so the argument above still
finds a maximum covering clique whose least member is a root.  In a
ranked search, translating a family of rank slice r lands it in a slice
r' <= r (rank drops by the sum of the minima).  Slices are searched in
increasing rank, and a slice is skipped only when it has no more points
than the incumbent, so every family larger than the incumbent has an
equally large covering copy in a slice that was searched.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# max_clique is unused here but stays importable: perfbench wraps both.
from .clique import max_clique, max_clique_parallel  # noqa: F401
from .core import Family, Vector, threshold_seq, verify


class BoxTooLargeError(RuntimeError):
    """The requested box exceeds the adjacency-memory budget."""


class BuildDeadlineError(RuntimeError):
    """The compatibility-graph build ran past its deadline."""


@dataclass(frozen=True)
class SearchLimits:
    """Resource caps for one search operation.

    Exceeding a cap degrades the result to exhaustive=False rather than
    raising.  Under tight caps the exact truncation point can vary with
    the worker count; within the caps, results are schedule-independent.
    """

    time_limit: float | None = 60.0
    node_limit: int | None = 5_000_000
    memory_mb: float = 512.0


@dataclass(frozen=True)
class SearchBox:
    """Per-coordinate inclusive upper limits; lower limits are fixed at 0.

    `complete_for` records the largest target size for which the box is
    known to contain an image of every verifying family (None for plain
    user boxes); completeness for m implies it for every smaller size.
    """

    limits: tuple[int, ...]
    derivation: str = "user"
    complete_for: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "limits", tuple(int(x) for x in self.limits))
        if not self.limits:
            raise ValueError("box must have at least one coordinate")
        for x in self.limits:
            if x < 0:
                raise ValueError(f"box limits must be >= 0, got {x}")

    @property
    def width(self) -> int:
        return len(self.limits)

    @property
    def size(self) -> int:
        return math.prod(x + 1 for x in self.limits)

    def points(self) -> Iterable[Vector]:
        return itertools.product(*(range(x + 1) for x in self.limits))

    def __str__(self) -> str:
        if len(set(self.limits)) == 1:
            return f"[0,{self.limits[0]}]^{self.width}"
        return "x".join(f"[0,{x}]" for x in self.limits)


def auto_box(ks, w: int, m: int) -> SearchBox:
    """The normalize-complete box [0, max(ks)*(m-1)]^w for target size m."""
    seq = threshold_seq(ks, w)
    if m < 1:
        raise ValueError(f"target size must be >= 1, got {m}")
    side = max(seq) * (m - 1)
    return SearchBox(
        (side,) * w,
        derivation=f"auto (normalize-complete for size {m})",
        complete_for=m,
    )


def compression_box(k: int, w: int, m: int) -> SearchBox:
    """The compression-complete box [0, m-1]^w (uniform threshold only).

    Any verifying family of size m can be compressed one coordinate at
    a time until every coordinate's attained values form an interval
    starting at 0, hence lie in [0, m-1]; compression preserves size and
    verification, so refuting size m here refutes it globally.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 1:
        raise ValueError(f"target size must be >= 1, got {m}")
    return SearchBox(
        (m - 1,) * w,
        derivation=f"compression-complete for size {m} (uniform k={k})",
        complete_for=m,
    )


@dataclass
class CompatibilityGraph:
    """Vertices are the lattice points of a box, or of one rank slice of
    it, in lexicographic index order; adjacency rows are int bitmasks
    over vertex indices."""

    ks: tuple[int, ...]
    box: SearchBox
    vectors: tuple[Vector, ...]
    adj: list[int]

    @property
    def n(self) -> int:
        return len(self.vectors)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


# Template bytes copied per block of adjacency rows.
_BLOCK_BYTES = 1 << 22

# Per-coordinate code of a difference d: bit 0 d > 0, bit 1 d < 0,
# bit 2 d >= k, bit 3 d <= -k.  OR-ed over the coordinates, the code
# marks an edge iff it has both sign bits and not both threshold bits.
_EDGE_CODE = np.array([c & 3 == 3 and c & 12 != 12 for c in range(16)])


def _template(seq, box: SearchBox) -> np.ndarray:
    """The edge table T over differences: T[d + L] for d in [-L, L]."""
    codes = []
    for k, side in zip(seq, box.limits):
        d = np.arange(-side, side + 1)
        code = (d > 0) | (d < 0) << 1 | (d >= k) << 2 | (d <= -k) << 3
        codes.append(code.astype(np.uint8))
    rest = functools.reduce(np.bitwise_or.outer, codes[1:], np.zeros((), np.uint8))
    table = np.empty(tuple(2 * x + 1 for x in box.limits), dtype=bool)
    for j, code in enumerate(codes[0]):  # a slab at a time bounds temporaries
        table[j] = _EDGE_CODE[rest | code]
    return table


def _rank_table(box: SearchBox) -> np.ndarray:
    return functools.reduce(np.add.outer, (np.arange(x + 1) for x in box.limits))


def _check_memory(what: str, n: int, box: SearchBox, memory_mb: float) -> None:
    table = math.prod(2 * x + 1 for x in box.limits)
    est_mb = (n * n / 8 + table) / (1024 * 1024)
    if est_mb > memory_mb:
        raise BoxTooLargeError(
            f"{what} has {n} lattice points; adjacency and difference table "
            f"would need about {est_mb:.4g} MiB, over the {memory_mb:g} MiB budget"
        )


def build_compatibility_graph(
    ks,
    box: SearchBox,
    memory_mb: float = 512.0,
    rank: int | None = None,
    deadline: float | None = None,
) -> CompatibilityGraph:
    """Materialize the compatibility graph of a box or of one rank slice.

    With `rank` given, the vertices are the box points whose coordinates
    sum to `rank`.

    Raises BoxTooLargeError with a size estimate when the adjacency
    bitmasks plus the difference table would exceed `memory_mb`, and
    BuildDeadlineError when time.monotonic() passes `deadline` before a
    block of rows is built.
    """
    seq = threshold_seq(ks, box.width)
    shape = tuple(x + 1 for x in box.limits)
    if rank is None:
        what = f"box {box}"
        flat = np.arange(box.size)
    else:
        what = f"rank-{rank} slice of box {box}"
        flat = np.flatnonzero(_rank_table(box) == rank)
    n = len(flat)
    _check_memory(what, n, box, memory_mb)
    template = _template(seq, box)
    coords = np.unravel_index(flat, shape)
    if rank is None:
        # windows[p] is template[L - p : 2L - p + 1], p's row over the box.
        windows = sliding_window_view(template, shape)[(slice(None, None, -1),) * len(shape)]
        block = max(1, _BLOCK_BYTES // n)
    else:
        # A slice keeps a small part of each box row, so read its bits
        # straight from the table: T[q - p + L] at base(p) + offset(q).
        tshape = template.shape
        offsets = np.ravel_multi_index(coords, tshape)
        bases = np.ravel_multi_index(
            tuple(x - c for x, c in zip(box.limits, coords)), tshape
        )
        cells = template.ravel()
        block = max(1, _BLOCK_BYTES // (8 * max(n, 1)))
    adj: list[int] = []
    for i0 in range(0, n, block):
        if deadline is not None and time.monotonic() > deadline:
            raise BuildDeadlineError(
                f"time limit reached while building the compatibility graph "
                f"of the {what} ({i0} of {n} rows built)"
            )
        if rank is None:
            rows = windows[tuple(c[i0 : i0 + block] for c in coords)].reshape(-1, n)
        else:
            rows = cells[bases[i0 : i0 + block, None] + offsets]
        for row in np.packbits(rows, axis=1, bitorder="little"):
            adj.append(int.from_bytes(row.tobytes(), "little"))
    vectors = tuple(zip(*(c.tolist() for c in coords)))
    return CompatibilityGraph(seq, box, vectors, adj)


def _roots(graph: CompatibilityGraph) -> list[int]:
    # Sound restrictions per the module docstring: first coordinate 0
    # always; nondecreasing tuples additionally when the thresholds are
    # uniform and the box cubical (coordinate permutations then act on
    # the graph).
    vecs = graph.vectors
    roots = [i for i, v in enumerate(vecs) if v[0] == 0]
    if (
        graph.box.width >= 2
        and len(set(graph.ks)) == 1
        and len(set(graph.box.limits)) == 1
    ):
        roots = [
            i for i in roots if all(a <= b for a, b in zip(vecs[i], vecs[i][1:]))
        ]
    return roots


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search operation.

    `exhaustive` means the reported answer is certified for all of Z^w,
    not merely for the searched box: either a witness was found (its own
    certificate for an existence target), or the search completed over a
    box that is complete for every size the answer concerns.  `witness`
    always verifies and has exactly `best_size` members.  `truncated`
    distinguishes a resource-capped run from one that finished its box
    (a finished run over a merely local box still has exhaustive=False).
    """

    best_size: int
    witness: Family
    exhaustive: bool
    nodes: int
    elapsed: float
    box: SearchBox | None
    target: int | None = None
    found: bool | None = None
    truncated: bool = False
    notes: tuple[str, ...] = ()


def normalize(family: Family, ks) -> Family:
    """Canonical small-coordinate copy with all pairwise relations intact.

    Per coordinate, attained values are shifted so the minimum is 0 and
    every gap between consecutive attained values is capped at that
    coordinate's threshold.  Signs of differences and threshold hits are
    preserved exactly (see the module docstring), so the output has the
    same relation matrix as the input and verifies iff the input does;
    the capping needs no verification precondition.  Values end up in
    [0, ks[i] * (size-1)].  Idempotent.
    """
    seq = threshold_seq(ks, family.width)
    if len(family) == 0:
        return family
    w = family.width
    remaps: list[dict[int, int]] = []
    for i in range(w):
        values = sorted({v[i] for v in family})
        remap = {values[0]: 0}
        for prev, cur in zip(values, values[1:]):
            remap[cur] = remap[prev] + min(cur - prev, seq[i])
        remaps.append(remap)
    return Family(
        w, [tuple(remaps[i][v[i]] for i in range(w)) for v in family]
    )


def _clique_run(graph, initial, stop_at, limits: SearchLimits, workers: int):
    # Zero covers (module docstring): per coordinate, the vertices at 0.
    covers = [
        sum(1 << i for i, v in enumerate(graph.vectors) if v[j] == 0)
        for j in range(graph.box.width)
    ]
    return max_clique_parallel(
        graph.adj,
        graph.n,
        _roots(graph),
        initial,
        stop_at,
        limits.node_limit,
        limits.time_limit,
        workers,
        covers,
    )


def _witness_family(graph, members) -> Family:
    return Family(graph.box.width, [graph.vectors[i] for i in members])


def _check_witness(witness: Family, seq, size: int) -> None:
    # A raising check, not an assert: python -O must not let a wrong
    # witness through.
    if len(witness) != size or not verify(witness, seq).ok:
        raise RuntimeError(
            f"search produced a witness that is not a verifying family of "
            f"size {size}: {list(witness.vectors)}"
        )


def _deadline(limits: SearchLimits, start: float) -> float | None:
    return None if limits.time_limit is None else start + limits.time_limit


def _unbuilt(box: SearchBox, start: float, exc: Exception, target=None) -> SearchResult:
    # The graph could not be built within the limits: nothing was decided.
    return SearchResult(
        best_size=0,
        witness=Family(box.width),
        exhaustive=False,
        nodes=0,
        elapsed=time.monotonic() - start,
        box=box,
        target=target,
        found=None if target is None else False,
        truncated=True,
        notes=(str(exc),),
    )


def exists_family(
    ks,
    w: int,
    m: int,
    box: SearchBox | None = None,
    limits: SearchLimits | None = None,
    workers: int = 1,
) -> SearchResult:
    """Decide whether a verifying family of m vectors exists in a box.

    With no box given, the normalize-complete auto box for size m is
    used, so a completed refutation is global; in that case the result
    also carries the in-box maximum and its witness, which by
    completeness is the global maximum.  A found witness is returned as
    soon as the engine hits size m.
    """
    seq = threshold_seq(ks, w)
    if m < 1:
        raise ValueError(f"target size must be >= 1, got {m}")
    limits = limits or SearchLimits()
    if box is None:
        box = auto_box(seq, w, m)
    if box.width != w:
        raise ValueError(f"box width {box.width} != {w}")
    start = time.monotonic()
    try:
        graph = build_compatibility_graph(
            seq, box, limits.memory_mb, deadline=_deadline(limits, start)
        )
    except (BoxTooLargeError, BuildDeadlineError) as exc:
        return _unbuilt(box, start, exc, target=m)
    res = _clique_run(graph, 0, m, _remaining(limits, start, 0), workers)
    witness = _witness_family(graph, res.members)
    _check_witness(witness, seq, res.size)
    found = res.size >= m
    if found:
        exhaustive = True
        notes = (f"witness of size {res.size} found in box {box}",)
    elif res.truncated:
        exhaustive = False
        notes = (f"truncated before exhausting box {box}; best found {res.size}",)
    else:
        exhaustive = box.complete_for is not None and box.complete_for >= m
        scope = "global" if exhaustive else f"within box {box} only"
        notes = (
            f"no family of size {m} in box {box} ({box.derivation}); "
            f"refutation is {scope}; in-box maximum is {res.size}",
        )
    return SearchResult(
        best_size=res.size,
        witness=witness,
        exhaustive=exhaustive,
        nodes=res.nodes,
        elapsed=time.monotonic() - start,
        box=box,
        target=m,
        found=found,
        truncated=res.truncated,
        notes=notes,
    )


def max_family_in_box(
    ks, box: SearchBox, limits: SearchLimits | None = None, workers: int = 1
) -> SearchResult:
    """Maximum verifying family within an explicit box.

    The answer is definitive for the box whenever the search is not
    truncated; `exhaustive` is set only when the box is additionally
    known complete for best_size + 1, making the value global.
    """
    seq = threshold_seq(ks, box.width)
    limits = limits or SearchLimits()
    start = time.monotonic()
    try:
        graph = build_compatibility_graph(
            seq, box, limits.memory_mb, deadline=_deadline(limits, start)
        )
    except (BoxTooLargeError, BuildDeadlineError) as exc:
        return _unbuilt(box, start, exc)
    res = _clique_run(graph, 0, None, _remaining(limits, start, 0), workers)
    witness = _witness_family(graph, res.members)
    _check_witness(witness, seq, res.size)
    exhaustive = (
        not res.truncated
        and box.complete_for is not None
        and box.complete_for >= res.size + 1
    )
    notes = []
    if res.truncated:
        notes.append(f"truncated; {res.size} is only a lower bound for box {box}")
    else:
        notes.append(f"in-box maximum for {box} is {res.size}")
    return SearchResult(
        best_size=res.size,
        witness=witness,
        exhaustive=exhaustive,
        nodes=res.nodes,
        elapsed=time.monotonic() - start,
        box=box,
        truncated=res.truncated,
        notes=tuple(notes),
    )


def _seed_family(seq: tuple[int, ...]) -> Family:
    # The generalized product construction, tolerant of unsorted
    # thresholds: the smallest-threshold coordinate balances the rank.
    w = len(seq)
    i_min = min(range(w), key=lambda i: seq[i])
    rest = [i for i in range(w) if i != i_min]
    vectors = []
    for combo in itertools.product(*(range(seq[i]) for i in rest)):
        v = [0] * w
        for i, val in zip(rest, combo):
            v[i] = val
        v[i_min] = -sum(combo)
        vectors.append(tuple(v))
    return Family(w, vectors)


def _remaining(limits: SearchLimits, start: float, nodes_used: int) -> SearchLimits:
    time_left = None
    if limits.time_limit is not None:
        time_left = max(0.0, limits.time_limit - (time.monotonic() - start))
    nodes_left = None
    if limits.node_limit is not None:
        nodes_left = max(0, limits.node_limit - nodes_used)
    return SearchLimits(time_left, nodes_left, limits.memory_mb)


def max_family_size(
    ks, w: int, limits: SearchLimits | None = None, workers: int = 1
) -> SearchResult:
    """Certify the maximum family size by growing complete boxes.

    Seeds from the product construction, then asks exists_family for
    one more vector over a complete box until a target is refuted
    (certified answer) or a resource cap bites (the best-so-far is
    returned with exhaustive=False).  The box is the compression box
    [0, m-1]^w for a uniform threshold and the auto box otherwise.
    """
    seq = threshold_seq(ks, w)
    limits = limits or SearchLimits()
    start = time.monotonic()
    seed = _seed_family(seq)
    witness = normalize(seed, seq)
    best = len(witness)
    upper = math.prod(seq)
    nodes = 0
    m = best + 1
    while True:
        box = compression_box(seq[0], w, m) if len(set(seq)) == 1 else None
        res = exists_family(seq, w, m, box, _remaining(limits, start, nodes), workers)
        nodes += res.nodes
        if res.found:
            best = res.best_size
            witness = res.witness
            m = best + 1
            if best > upper:
                raise RuntimeError(
                    f"search found size {best}, above the proven upper bound {upper}"
                )
            continue
        elapsed = time.monotonic() - start
        if res.exhaustive:
            if res.best_size == best and len(res.witness) == best:
                witness = res.witness
            return SearchResult(
                best_size=best,
                witness=witness,
                exhaustive=True,
                nodes=nodes,
                elapsed=elapsed,
                box=res.box,
                notes=(f"certified maximum family size {best}",) + res.notes,
            )
        if res.best_size > best and len(res.witness) == res.best_size:
            best, witness = res.best_size, res.witness
        return SearchResult(
            best_size=best,
            witness=witness,
            exhaustive=False,
            nodes=nodes,
            elapsed=elapsed,
            box=res.box,
            truncated=res.truncated,
            notes=(f"best found {best}; not certified",) + res.notes,
        )


def ranked_max_family_size(
    k: int, w: int, limits: SearchLimits | None = None, workers: int = 1
) -> SearchResult:
    """Certified maximum size of a constant-rank verifying family.

    Searches every rank slice of [0, (w-1)(k-1)]^w, which is complete
    for constant-rank families by the translation argument in the module
    docstring.  The certified value equals k^(w-1) wherever the search
    completes.  The box's difference table and its largest slice's
    adjacency are charged against `memory_mb` before any slice is built;
    going over, or running out of time while building a slice, returns a
    truncated result whose note is the build's error.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    limits = limits or SearchLimits()
    side = (w - 1) * (k - 1)
    box = SearchBox(
        (side,) * w,
        derivation="ranked (min-translated values fit in [0,(w-1)(k-1)])",
    )
    seq = (k,) * w
    start = time.monotonic()
    deadline = _deadline(limits, start)
    best = 0
    witness = Family(w)
    nodes = 0
    truncated = False
    build_error = None
    sizes = np.bincount(_rank_table(box).ravel())
    try:
        _check_memory(
            f"largest rank slice of box {box}", int(sizes.max()), box, limits.memory_mb
        )
        for level, size in enumerate(sizes.tolist()):
            if size <= best:
                continue
            graph = build_compatibility_graph(
                seq, box, limits.memory_mb, level, deadline
            )
            rem = _remaining(limits, start, nodes)
            res = _clique_run(graph, best, None, rem, workers)
            nodes += res.nodes
            if res.truncated:
                truncated = True
            if res.size > best and res.members:
                best = res.size
                witness = _witness_family(graph, res.members)
    except (BoxTooLargeError, BuildDeadlineError) as exc:
        truncated = True
        build_error = str(exc)
    _check_witness(witness, seq, best)
    if build_error is not None:
        note = build_error
    elif truncated:
        note = f"best found {best}; truncated"
    else:
        note = (
            f"certified maximum constant-rank family size {best} (box {box}, all "
            f"rank slices 0..{w * side})"
        )
    return SearchResult(
        best_size=best,
        witness=witness,
        exhaustive=not truncated,
        nodes=nodes,
        elapsed=time.monotonic() - start,
        box=box,
        truncated=truncated,
        notes=(note,),
    )


# ---------------------------------------------------------------------------
# Cross digraph and compression.


@dataclass
class CrossDigraph:
    """Directed edges witnessing how levels on one coordinate interact.

    A short edge A -> B steps down one level (A[c] - B[c] = 1) while B
    dominates A elsewhere; a long edge jumps up k - 1 levels while A
    beats B by at least k somewhere else.  Paths to level 0 are what
    compression preserves.
    """

    family: Family
    k: int
    coord: int  # 1-based
    short_edges: frozenset[tuple[Vector, Vector]]
    long_edges: frozenset[tuple[Vector, Vector]]

    def successors(self) -> dict[Vector, set[Vector]]:
        succ: dict[Vector, set[Vector]] = {v: set() for v in self.family}
        for a, b in self.short_edges | self.long_edges:
            succ[a].add(b)
        return succ


def _digraph_edges(vectors, k: int, c: int):
    short = set()
    long = set()
    for a in vectors:
        for b in vectors:
            if a == b:
                continue
            if a[c] - b[c] == 1 and all(
                a[i] <= b[i] for i in range(len(a)) if i != c
            ):
                short.add((a, b))
            if b[c] - a[c] == k - 1 and any(
                a[i] - b[i] >= k for i in range(len(a)) if i != c
            ):
                long.add((a, b))
    return short, long


def build_cross_digraph(family: Family, k: int, coord: int) -> CrossDigraph:
    """Short/long edge digraph of a verifying family on one coordinate.

    The family must verify for k and be nonnegative on `coord`
    (1-based).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= coord <= family.width:
        raise ValueError(f"coordinate {coord} out of range 1..{family.width}")
    if not verify(family, k).ok:
        raise ValueError(f"family does not verify for k={k}")
    c = coord - 1
    for v in family:
        if v[c] < 0:
            raise ValueError(f"vector {v} negative on coordinate {coord}")
    short, long = _digraph_edges(family.vectors, k, c)
    return CrossDigraph(family, k, coord, frozenset(short), frozenset(long))


def _reaches_level0(vectors, succ, c) -> set:
    reached = {v for v in vectors if v[c] == 0}
    # Reverse closure: iterate until stable (families are small).
    changed = True
    while changed:
        changed = False
        for v in vectors:
            if v in reached:
                continue
            if succ[v] & reached:
                reached.add(v)
                changed = True
    return reached


def compress(family: Family, k: int, coord: int) -> Family:
    """Fixpoint compression of one coordinate of a verifying family.

    While some vector has no digraph path to level 0, the canonically
    least such vector and all its successors move down one level (none
    of them sits at level 0, else the chosen vector would have a path).
    At the fixpoint every vector reaches level 0 and the attained levels
    form an interval of nonnegative integers starting at 0.  Size and
    verification are preserved; the result is idempotent under repeated
    compression of the same coordinate.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 1 <= coord <= family.width:
        raise ValueError(f"coordinate {coord} out of range 1..{family.width}")
    if not verify(family, k).ok:
        raise ValueError(f"family does not verify for k={k}")
    c = coord - 1
    for v in family:
        if v[c] < 0:
            raise ValueError(f"vector {v} negative on coordinate {coord}")
    if len(family) == 0:
        return family
    vectors = list(family.vectors)
    while True:
        short, long = _digraph_edges(vectors, k, c)
        succ: dict[Vector, set[Vector]] = {v: set() for v in vectors}
        for a, b in short | long:
            succ[a].add(b)
        reached = _reaches_level0(vectors, succ, c)
        stuck = sorted(v for v in vectors if v not in reached)
        if not stuck:
            break
        chosen = stuck[0]
        moving = {chosen}
        frontier = [chosen]
        while frontier:
            nxt = []
            for v in frontier:
                for u in succ[v]:
                    if u not in moving:
                        moving.add(u)
                        nxt.append(u)
            frontier = nxt
        if any(v[c] < 1 for v in moving):
            raise RuntimeError(f"compression would move {sorted(moving)} below 0")
        vectors = [
            v[:c] + (v[c] - 1,) + v[c + 1 :] if v in moving else v for v in vectors
        ]
        if len(set(vectors)) != len(vectors):
            raise RuntimeError(f"compression merged two vectors on coordinate {coord}")
    return Family(family.width, vectors)
