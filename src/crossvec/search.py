"""Exact search for maximum families via reduction to maximum clique.

Both defining constraints (pairwise incomparability, pairwise
non-crossing) are symmetric predicates on pairs, so the verifying
families inside a finite box are exactly the cliques of a compatibility
graph on the box's lattice points: vertices are points, edges join pairs
that are 1-crossing but not ks-crossing.  An exhaustive clique search
over a box therefore decides in-box existence outright; what makes the
answer global is a complete box.

Box completeness.  For any thresholds ks, every verifying family of m
vectors has a verifying copy of the same size inside [0, m-1]^w
(`compression_box`), so any box whose limits are all at least m - 1
is complete for m: refuting size m there refutes it over all of Z^w.
Completeness is thus a function of the limits, `SearchBox.complete_for`
(one more than the least limit).  A finished search whose in-box
maximum is below it has found the global maximum, since a family one
larger would have a copy in the box.  To build the copy, translate
the family so every coordinate minimum is 0 (both defining
constraints depend only on differences), then run `compress` on each
coordinate c in turn.  Its cross digraph has a short edge A -> B when
A[c] - B[c] = 1 and B >= A elsewhere, and a long edge when
B[c] - A[c] = ks[c] - 1 and A[i] - B[i] >= ks[i] for some i != c.  Both
are read from `core._relation_table`: over the coordinates i != c,
lower[A] ORs the sets "below A[i]" and far[A] the sets "at most
A[i] - ks[i]", so A's successors are
level[A[c] - 1] & ~lower[A] | level[A[c] + ks[c] - 1] & far[A], where
level[x] holds the vectors at x on c.  A step moves vectors on c only,
so lower and far are built once per call and each step regroups only
the levels of c.  One compression step moves a set S down by one on c:
a vector with no path to level 0 and all its successors.  So S is
closed under successors, and every vector in it is at level >= 1.  Take a pair A in S, B not in
S, and let A' = A - e_c.  Comparability: B <= A' would mean B <= A,
and A' <= B without A <= B forces A[c] - B[c] = 1 and B >= A
elsewhere, a short edge; this also rules out A' = B.  Crossing: A'
differs from A only in that B[c] - A[c] grew by one, so a new
ks-crossing must have B beat A' by ks[c] on c, hence
B[c] - A[c] = ks[c] - 1 and A[i] - B[i] >= ks[i] for some i != c, a
long edge.  Either edge puts B in S, a contradiction.  Pairs inside S
and pairs outside S keep their differences, so the step keeps size and
verification.  At the fixpoint every vector has a path to level 0.
Long edges never descend (ks[c] - 1 >= 0) and short edges descend by
one, so a path from level s > 0 to 0 steps through s - 1, and the
attained levels form {0..t}.  Compression only lowers values, and only
on c, so the coordinates done earlier stay gap-free, and m vectors take
at most m values on each.

Constant-rank search uses a second completeness argument: translate a
ranked verifying family so every coordinate minimum is 0.  If some
value V >= k were attained on coordinate i, pair its vector u with a
vector v at 0 on i; equal ranks force the other w - 1 coordinates of
v - u to sum to V, so one of them is >= V / (w-1), and avoiding a
k-crossing against u[i] - v[i] = V >= k caps that at k - 1.  Hence all
values are at most (w-1)(k-1) and ranked search over all rank slices of
[0, (w-1)(k-1)]^w is exhaustive.

Graph build.  The vertices, a box's points or one rank slice's, are
listed in decreasing lexicographic order, and vertex i is bit i of
every bit set: the clique engine works from the top bit down (see
`clique`), so its largest vertex is the least point.  Per coordinate c
the builder reads `core._relation_table` over the vertices' c-values,
the table `core.verify` reads: for each attained value x, four bit
sets, the vertices q with q[c] < x, with q[c] <= x, with
q[c] <= x - ks[c], and with q[c] < x + ks[c].  For a vertex p, `lower`
and `far_below` are the ORs of the first and third over the
coordinates at x = p[c], and `at_most` and `near` the ANDs of the
second and fourth.  q is 1-crossing p iff it lies below p somewhere
and above it somewhere, lower & ~at_most, and ks-crossing iff it lies
ks[i] below on some i and ks[j] above on some j, far_below & ~near.
So p's row is lower & ~at_most & ~(far_below & ~near), which never
holds p itself.  Rows that share all but their last coordinate share
the ORs and ANDs over the others, computed once per run of such rows.
Each coordinate's level bit sets (the vertices at each value), from
which the clique engine's covers are taken, are at_most ^ below.  The
n^2/8 bytes of adjacency, the clique engine's complement rows and the
build's masks all count against the memory budget.  The complement
rows are full rows, as large as the adjacency, so the two take
2 n^2/8 bytes; with W > 1 workers each one also holds its own copy of
the adjacency and the complement rows, (1 + 2W) n^2/8 bytes in all.
The masks are the table's L_i + 2 prefix masks and L_i + 1 level bit
sets of at most n bits for each coordinate with limit L_i,
sum(2 L_i + 3) n/8 bytes.  The deadline is checked between blocks of
rows, so `time_limit` covers the build.

Coordinate order.  Permuting the coordinates together with their
thresholds and box limits is an isomorphism of instances: for a
permutation p, v -> (v[p(0)], ..., v[p(w-1)]) keeps comparability and
crossing, both conditions on each coordinate's difference against that
coordinate's own threshold, maps the box onto the permuted box, and
keeps ranks, gap-freeness and level covers.  So the driver searches one
canonical instance and maps its witness back to the caller's order
before checking it: the coordinates sorted by threshold, ascending, and
then by searched limit (C's, under "Clipping"), descending.  The
canonical instance depends only on the multiset of (threshold, limit)
pairs, so every size, verdict, truncation and node count is the same
for every order of one instance.  Each class of "Symmetry pruning" is
then a run of adjacent coordinates, so the class roots and the root
stabilizers, which join only adjacent coordinates, see all of it.
Uniform thresholds on a cubical box, as in every ranked search, keep
the given order.  Notes, errors and the result's box keep the caller's
order.  Before the level capacities (below), thresholds ascending took
fewer nodes than descending on every certification measured, (2,3,4)
46,955 against 150,788.  With them the order matters less and either
way: ascending takes 23,453 nodes on (2,3,4) and 1,903 on (2,3,3),
descending 16,769 and 3,459.  Limits descending took fewer nodes than
ascending on in-box searches with k = 2 such as [0,4]x[0,3]x[0,4]x[0,3],
13,995 against 18,669 before the capacities and 7,335 against 7,874
with them.

Symmetry pruning.  The clique engine branches on the maximum vertex,
which in the graph's decreasing lexicographic order is the
lexicographically least point.  So roots can soundly be restricted to
vertices that can be the lexicographically least member of some image
of a maximum family.  Translation gives every coordinate minimum 0, so
the least member has first coordinate 0.  Call a class a set of
coordinates that share both their threshold and their box limit.  Any
permutation inside a class maps the box onto itself and keeps every
difference's crossing, so it is a graph automorphism.  Among the images
of a family under these permutations, take the one whose least member
u is lexicographically least.  If u[i] > u[j] for coordinates i < j of
one class, swapping i and j gives an image whose least member is at
most the swapped u, which is lexicographically smaller than u.  So u is
nondecreasing within every class, and in particular u[c - 1] <= u[c]
wherever coordinate c is linked, sharing threshold and limit with
c - 1.  The roots are the vertices with first coordinate 0 that do not
decrease across any link.  That rule is sound on any graph, and it is
the whole class rule when every class is a run of adjacent coordinates,
as the driver's "Coordinate order" makes it.  Uniform thresholds on a
cubical box form one class, and there the roots are the nondecreasing
tuples.

Level covers.  Every search box B has lower limit 0 on each
coordinate, so the argument under "Box completeness" gives any
verifying family in B a copy in B of the same size that is gap-free:
on every coordinate its values form an interval {0..t_i}.  Translation
and compression only lower values, so the copy stays in B.  The clique
engine is therefore given one cover per coordinate i and level l, the
vertices at l on i, and vertex v requires the covers (i, 0..v[i]) on
every i.  It records only gap-free cliques, and cuts a branch once a
required level has no vertex left among the candidates, or once one
coordinate has more required levels unmet than the colour bound allows
(a vertex meets one level per coordinate; each coordinate's levels are
one of the clique engine's classes).  This composes with the root restriction:
a gap-free family takes 0 on every coordinate, so its least member has
first coordinate 0, and a permutation inside a class keeps a family
gap-free and maps level covers to level covers, so the argument under
"Symmetry pruning" still finds a maximum gap-free clique whose least
member is a root.

Level capacities.  Two vectors with equal value on coordinate c differ
by 0 there, which neither orders them nor reaches ks[c] >= 1.  So they
are comparable, or ks-cross, exactly when their projections onto the
other coordinates are, under the thresholds ks without c, and two
distinct vectors of one level have distinct projections.  Each level set
of a verifying family therefore projects one-to-one onto a verifying
family of width w - 1 under those thresholds, and holds at most any
upper bound on such families.  This is the level-by-level step behind
g(k, w) <= k^(w-1) + (k-1) g(k, w-1) (`bounds.recursive_upper_bound`).
A clique of the graph inside one level is such a level set, so a box
search gives the clique engine each coordinate's level covers, pairwise
disjoint, as one class with the cap
`bounds.generalized_bounds(ks without c).upper`, or 1 at width 1, where
a level is a single point.  The engine's capacity cut then bounds every
clique below a node by the sum over the levels of min(cap, the level's
vertices on the stack or among the candidates), and cuts the node when
that is at most the incumbent (the `clique` docstring, "Capacity cut").
The caps come from the `generalized_bounds` docstring: 1 at width 1 (two
points of Z^1 are comparable), max(a, b) at width 2 (the end pair of a
sorted antichain), exact in both; with all of the other thresholds equal
to k, every `best_upper_bound` candidate, k^2 at width 3 by the paper's
theorem; otherwise the product of the other thresholds, or the doubling
pattern's exact value.  The caps bound every clique of the graph, not
only the gap-free ones, and depend only on the multiset of the other
thresholds, so the cut composes with level covers, clipping, the
coordinate order, class roots and root stabilizers, and changes only
node counts.  Ranked searches pass no classes.

Clipping.  A gap-free family of m vectors has at most m values on each
coordinate, so it lies in [0, m-1]^w.  A search with target m therefore
builds and searches only C = B ∩ [0, m-1]^w, itself a box with lower
limits 0.  If B holds a family of m vectors, C holds a gap-free one.  If
not, every family in B has at most m - 1 vectors and a gap-free copy in
C, so C's maximum is B's, and a refuted target still reports B's exact
in-box maximum.  The root restriction and the level covers are argued
on C alone, so the classes are those of C's limits, not of B's.  The
result reports B, whose completeness is what makes a refutation global.

Zero covers.  Compression does not keep a constant rank, so ranked
searches are neither clipped nor given level covers.  They keep the
weaker consequence of translation alone: one cover per coordinate, the
vertices at 0 there, which every vertex requires.  The root restriction
composes with it as with level covers: a permutation inside a class
keeps the rank and maps zero covers to zero covers.  In a ranked
search, translating a family of rank slice r lands it in a slice
r' <= r (rank drops by the sum of the minima).  Slices are searched in
increasing rank, and a slice is skipped only when it has no more points
than the incumbent, so every family larger than the incumbent has an
equally large covering copy in a slice that was searched.

Mirrored slices.  Let S be the sum of the box limits.  A ranked search
visits only the slices of rank 0..floor(S/2).  Take a verifying family
F of rank r in the box that takes 0 on every coordinate, and let M_c be
its maximum on coordinate c.  The map x -> (M_c - x_c) negates and
translates, so it keeps every difference's comparability and crossing;
its image takes 0 and M_c on every coordinate, lies in the box, and has
constant rank M_F - r, where M_F = sum M_c <= S.  If r > floor(S/2),
that rank is at most S - r <= floor(S/2).  So every covering family of
an upper slice has a covering copy of the same size in a lower one,
and the cut composes with translation, zero covers, class roots and the
skip of slices no larger than the incumbent.  The search starts from
the translated `product_family(k, w)`, k^(w-1) vectors of one rank, as
incumbent and witness, so slices of at most k^(w-1) points are skipped
and the others need only refute k^(w-1) + 1.

Root stabilizers.  Each root's search also uses the permutations that
fix its root.  Take a maximum family F that the search must find (a
gap-free one in C, or a covering one in a ranked slice), and its
canonical image F* from "Symmetry pruning": among the images of F under
permutations inside classes, the one whose least member u is
lexicographically least, so u is a root.  A block of u is a maximal run
of adjacent coordinates that share threshold, searched limit and u's
value, and H is the group of permutations inside blocks.  H lies inside
the class permutations and fixes u.  In the driver's "Coordinate order"
every class is a run and u is nondecreasing within it, so each block is
all of a class on which u takes one value, and H is the whole stabilizer
of u among the class permutations.  So every tau in H maps the graph,
the level covers ((c, l) to (tau(c), l)) with their requirements, the
zero covers and the rank slice onto themselves, and tau F* is again an
image of F.  Its least member is therefore no less than u, and it holds
tau(u) = u, so u is its least member: every other member of F* has its
whole H-orbit lexicographically above u.  The driver passes the clique
engine a hook that gives each root two exact cuts (the `clique`
docstring, "Root symmetry").  Core: root u keeps only the candidates
whose whole H-orbit lies above u.  Blocks are runs of adjacent
coordinates, so the lexicographically least H-image of x sorts its
values within each block, and x is dropped exactly when it equals u
before some block and lies below u's block value on a coordinate of
that block: a few ANDs and ORs of the level bit sets per block.  Orbits:
the root node, while its stack is u alone, removes the H-orbit of each
vertex it has branched on, also built from the level bit sets; this is
exact because H fixes u and maps the core, the graph and the covers
onto themselves.  Below the root node the stack holds vertices that H
moves, so deeper nodes branch as before.  The cuts compose with the
rest.  Level covers and clipping: F* is gap-free and lies in C, and H is
taken on C's limits.  Class roots: u is the root that "Symmetry pruning"
keeps for F*.  Zero covers and mirrored slices: H keeps ranks and zero
covers, so F* lies in the slice that holds F, which the search
visits.  Workers: the hook holds only the graph's points and level bit
sets and is pickled into each worker, which prunes its own roots
exactly as one process would.  A ranked search starts from its seed, so
its node count still does not depend on the number of workers.  A root
whose blocks are all single coordinates gets no cut.

One driver.  Every search mode (existence, in-box maximum, the growing
boxes of `max_family_size`, constant rank) goes through one private
driver that treats a box as a single slice and a ranked search as the
lower rank slices of its box in increasing rank.  It alone derives the
deadline from `time_limit`, charges the largest slice against
`memory_mb` before building anything, turns a BoxTooLargeError or
BuildDeadlineError into a truncated result whose note is the error,
hands the clique engine the time and nodes left of the budget, and
checks with a raising check (not an assert) that the witness verifies,
has exactly the reported size and, in a ranked search, constant rank.
It alone decides the verdict.  A ranked search is exhaustive when it
is not truncated (the translation argument above).  A box search is
exhaustive when its witness reached the target, or when it is not
truncated and the box is complete for one more than its in-box
maximum.  That covers refutations too: by "Clipping" a refuted search
reports the box's exact in-box maximum.  Each entry point only adds a
note, unless the build error already is one.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass, replace

# max_clique is unused here but stays importable: perfbench wraps both
# (tests/test_source.py checks every attribute it wraps).
from .clique import max_clique, max_clique_parallel  # noqa: F401
from .bounds import generalized_bounds
from .constructions import generalized_product_family, product_family
from .core import Family, Vector, _bits, _relation_table, threshold_seq, verify

class BoxTooLargeError(RuntimeError):
    """The requested box exceeds the adjacency-memory budget."""


class BuildDeadlineError(RuntimeError):
    """The compatibility-graph build ran past its deadline."""


@dataclass(frozen=True)
class SearchLimits:
    """Resource caps for one search operation.

    Exceeding a cap degrades the result to exhaustive=False rather than
    raising.  `time_limit` covers graph builds and clique search alike.
    `node_limit` is one budget for the whole operation: the reported
    `nodes` never exceeds it, and with several workers each gets a share
    of what is left, the shares summing to it.  Under tight caps the
    exact truncation point can therefore vary with the worker count.
    Within the caps, sizes, verdicts and witnesses are
    schedule-independent; box-search node counts are not (refuting
    f(3,3) = 10 takes 5,575 nodes on one worker, 5,633 on two).  A
    negative or NaN cap, or a node limit that is not a whole number,
    raises ValueError; an integral float such as 1e6 is kept as the int
    it names.  A zero time or node limit truncates.
    """

    time_limit: float | None = 60.0
    node_limit: int | None = 5_000_000
    memory_mb: float = 512.0

    def __post_init__(self):
        # "not x >= 0" rather than "x < 0", so that NaN is refused too.
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValueError(f"time_limit must be nonnegative, got {self.time_limit}")
        if self.node_limit is not None:
            if not self.node_limit >= 0:
                raise ValueError(f"node_limit must be nonnegative, got {self.node_limit}")
            # A fractional budget would let the engine count one node past it.
            if self.node_limit % 1:
                raise ValueError(f"node_limit must be a whole number, got {self.node_limit}")
            object.__setattr__(self, "node_limit", int(self.node_limit))
        if not self.memory_mb > 0:
            raise ValueError(f"memory_mb must be positive, got {self.memory_mb}")


@dataclass(frozen=True)
class SearchBox:
    """Per-coordinate inclusive upper limits; lower limits are fixed at 0.

    It holds a copy of every verifying family of at most `complete_for`
    vectors (module docstring, "Box completeness").  A negative or
    fractional limit raises ValueError; an integral float such as 3.0 is
    kept as the int it names.
    """

    limits: tuple[int, ...]

    def __post_init__(self):
        limits = tuple(self.limits)
        if not limits:
            raise ValueError("box must have at least one coordinate")
        for x in limits:
            # Truncating 2.7 to 2 would search a box other than the one asked for.
            if x % 1:
                raise ValueError(f"box limits must be whole numbers, got {x}")
            if x < 0:
                raise ValueError(f"box limits must be >= 0, got {x}")
        object.__setattr__(self, "limits", tuple(map(int, limits)))

    @property
    def width(self) -> int:
        return len(self.limits)

    @property
    def size(self) -> int:
        return math.prod(x + 1 for x in self.limits)

    @property
    def complete_for(self) -> int:
        return min(self.limits) + 1

    def __str__(self) -> str:
        if len(set(self.limits)) == 1:
            return f"[0,{self.limits[0]}]^{self.width}"
        return "x".join(f"[0,{x}]" for x in self.limits)


def _target_size(m) -> int:
    # Checked as SearchBox checks its limits: 4.0 is kept as 4, 4.5 refused.
    if m % 1:
        raise ValueError(f"target size must be a whole number, got {m}")
    if m < 1:
        raise ValueError(f"target size must be >= 1, got {m}")
    return int(m)


def compression_box(ks, w: int, m: int) -> SearchBox:
    """The box [0, m-1]^w, complete for size m under any thresholds.

    `ks`, an int (a uniform threshold) or one threshold per coordinate,
    is only checked (module docstring, "Box completeness").  A target m
    that is not a whole number raises ValueError; an integral float is
    kept as the int it names.
    """
    threshold_seq(ks, w)
    return SearchBox((_target_size(m) - 1,) * w)


@dataclass
class CompatibilityGraph:
    """Vertices are the lattice points of a box, or of one rank slice of
    it, in decreasing lexicographic order, so that the clique engine's
    largest vertex is the least point (module docstring, "Graph build");
    adjacency rows are int bitmasks over vertex indices, vertex i on
    bit i.  `levels[c][x]` is the bit set of the vertices whose
    coordinate c is x, for x in 0..box.limits[c]."""

    ks: tuple[int, ...]
    box: SearchBox
    vectors: tuple[Vector, ...]
    adj: list[int]
    levels: tuple[list[int], ...]

    @property
    def n(self) -> int:
        return len(self.vectors)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


# Rows built between two deadline checks.
_CHECK_ROWS = 256


def _check_memory(
    what: str, n: int, box: SearchBox, memory_mb: float, workers: int = 1
) -> None:
    # The clique engine's complement rows are as large as the adjacency.
    # With several workers, each one unpickles its own adjacency and
    # builds its own complement rows next to the caller's adjacency.
    # The build holds L + 2 prefix masks and L + 1 level bit sets of at
    # most n bits for each coordinate with limit L.
    masks = sum(2 * x + 3 for x in box.limits) * n / 8
    rows = 2 if workers <= 1 else 1 + 2 * workers
    est_mb = (rows * n * n / 8 + masks) / (1024 * 1024)
    if est_mb > memory_mb:
        per_worker = (
            f", with their own adjacency and complement rows for each of {workers} workers,"
            if workers > 1
            else ""
        )
        raise BoxTooLargeError(
            f"{what} has {n} lattice points; adjacency, its complement rows "
            f"and coordinate masks{per_worker} would need about {est_mb:.4g} MiB "
            f"({rows} n^2/8 bytes of rows and the masks), over the {memory_mb:g} MiB budget"
        )


def build_compatibility_graph(
    ks,
    box: SearchBox,
    memory_mb: float = SearchLimits.memory_mb,
    rank: int | None = None,
    deadline: float | None = None,
) -> CompatibilityGraph:
    """Materialize the compatibility graph of a box or of one rank slice.

    With `rank` given, the vertices are the box points whose coordinates
    sum to `rank`.  Each row comes from the per-coordinate relation
    tables of `core.verify` (module docstring, "Graph build").

    Raises BoxTooLargeError with a size estimate when the adjacency
    bitmasks, the clique engine's complement rows (charged at that size
    again) and the build's coordinate masks would exceed `memory_mb`, and
    BuildDeadlineError when time.monotonic() passes `deadline` before a
    block of rows is built.
    """
    seq = threshold_seq(ks, box.width)
    ranges = [range(x, -1, -1) for x in box.limits]  # decreasing lexicographic order
    if rank is None:
        what = f"box {box}"
        vectors = tuple(itertools.product(*ranges))
    else:
        what = f"rank-{rank} slice of box {box}"
        # The last coordinate is what the others leave of the rank.
        vectors = tuple(
            (*h, rank - s)
            for h in itertools.product(*ranges[:-1])
            if 0 <= rank - (s := sum(h)) <= box.limits[-1]
        )
    n = len(vectors)
    _check_memory(what, n, box, memory_mb)
    # tables[c]: the relation table of coordinate c ("Graph build").
    tables, levels = [], []
    for column, k, top in zip(list(zip(*vectors)) or [()] * box.width, seq, box.limits):
        table, level = _relation_table(column, k), [0] * (top + 1)
        for x, (below, at_most, _, _) in table.items():
            level[x] = at_most ^ below
        tables.append(table)
        levels.append(level)
    *heads, last = tables
    adj: list[int] = []
    check = 0  # the row count at the next deadline check
    # Rows that share all but the last coordinate share the heads' masks.
    for head, run in itertools.groupby(vectors, key=lambda v: v[:-1]):
        if deadline is not None and len(adj) >= check:
            if time.monotonic() > deadline:
                raise BuildDeadlineError(
                    f"time limit reached while building the compatibility graph "
                    f"of the {what} ({len(adj)} of {n} rows built)"
                )
            check = len(adj) + _CHECK_ROWS
        lower = far_below = 0
        at_most = near = -1
        for table, x in zip(heads, head):
            a, b, c, d = table[x]
            lower |= a
            at_most &= b
            far_below |= c
            near &= d
        for v in run:
            a, b, c, d = last[v[-1]]
            # lower & ~at_most & ~(far_below & ~near), with one NOT.
            adj.append((lower | a) & ~(at_most & b | (far_below | c) & ~(near & d)))
    return CompatibilityGraph(seq, box, vectors, adj, tuple(levels))


class _RootStabilizer:
    """Class roots and the clique engine's `symmetry` hook for one graph
    (module docstring, "Symmetry pruning" and "Root stabilizers").

    Coordinate c > 0 is linked when it shares threshold and box limit
    with c - 1.  `roots()` lists the vertices with first coordinate 0
    that do not decrease across any link, in increasing lexicographic
    order.  For root u the hook returns None when every block of u is
    one coordinate, and otherwise the candidates whose whole orbit under
    u's stabilizer H lies above u in lexicographic order, with a
    function from a vertex to its H-orbit.  Both come from ANDs and ORs
    of `levels`.  Links join only adjacent coordinates, so the rule is
    sound on any graph and prunes fully when every class is a run, as
    the driver's coordinate order makes it.
    """

    def __init__(self, graph: CompatibilityGraph):
        # Only the points and level bit sets: the hook is pickled into
        # every worker, and the adjacency must not travel with it.
        keys = list(zip(graph.ks, graph.box.limits))
        self.linked = [c for c in range(1, len(keys)) if keys[c] == keys[c - 1]]
        self.vectors = graph.vectors
        self.levels = graph.levels

    def roots(self) -> list[int]:
        # Decreasing index order is increasing lexicographic order.
        vecs = self.vectors
        return [
            i for i in range(len(vecs) - 1, -1, -1)
            if vecs[i][0] == 0 and all(vecs[i][c - 1] <= vecs[i][c] for c in self.linked)
        ]

    def __call__(self, root: int, cand: int):
        u = self.vectors[root]
        joined = [c for c in self.linked if u[c] == u[c - 1]]
        if not joined:
            return None
        blocks = [[0]]
        for c in range(1, len(u)):
            if c in joined:
                blocks[-1].append(c)
            else:
                blocks.append([c])
        levels = self.levels
        same = -1  # the vertices equal to u before the block
        for block in blocks:
            a = u[block[0]]
            if len(block) > 1 and a:
                below = 0
                for c in block:
                    for x in range(a):
                        below |= levels[c][x]
                cand &= ~(same & below)
            for c in block:
                same &= levels[c][a]
        vectors = self.vectors
        fixed = [c for block in blocks if len(block) == 1 for c in block]
        moved = [block for block in blocks if len(block) > 1]

        def orbit(v: int) -> int:
            # The vertices equal to v on the fixed coordinates whose values
            # on each block permute v's.
            x = vectors[v]
            bits = -1
            for c in fixed:
                bits &= levels[c][x[c]]
            for block in moved:
                images = 0
                for values in set(itertools.permutations([x[c] for c in block])):
                    image = bits
                    for c, y in zip(block, values):
                        image &= levels[c][y]
                    images |= image
                bits = images
            return bits

        return cand, orbit


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search operation.

    `exhaustive` means the reported answer holds for all of Z^w, not
    merely for the box (module docstring, "One driver").  `witness`
    always verifies and has exactly `best_size` members; `found` says
    whether it reached `target` (None without one).  `truncated` tells
    a resource-capped run from one that finished its box, which may
    still be too small to make its answer global.
    """

    best_size: int
    witness: Family
    exhaustive: bool
    nodes: int
    elapsed: float
    box: SearchBox
    target: int | None = None
    truncated: bool = False
    notes: tuple[str, ...] = ()

    @property
    def found(self) -> bool | None:
        return None if self.target is None else self.best_size >= self.target


def normalize(family: Family, ks) -> Family:
    """Canonical small-coordinate copy with all pairwise relations intact.

    Per coordinate, attained values are shifted so the minimum is 0 and
    every gap between consecutive attained values is capped at that
    coordinate's threshold.  A difference that met a threshold
    t <= ks[i] still meets it (either some single gap was capped to
    exactly ks[i], or no gap between the two values was capped at all),
    and sub-threshold differences are untouched, as are signs.  So the
    output has the same relation matrix as the input and verifies iff
    the input does; the capping needs no verification precondition.
    Values end up in [0, ks[i] * (size-1)].  Idempotent.
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


def _remaining(limits: SearchLimits, start: float, nodes_used: int) -> SearchLimits:
    time_left = None
    if limits.time_limit is not None:
        time_left = max(0.0, limits.time_limit - (time.monotonic() - start))
    nodes_left = None
    if limits.node_limit is not None:
        nodes_left = max(0, limits.node_limit - nodes_used)
    return SearchLimits(time_left, nodes_left, limits.memory_mb)


@functools.lru_cache(maxsize=256)
def _level_cap(others: tuple[int, ...]) -> int:
    # A level's cap from the other coordinates' thresholds (module
    # docstring, "Level capacities"); cached, as every box search asks.
    return generalized_bounds(others).upper if others else 1


def _covers(graph: CompatibilityGraph, levels: bool):
    """The clique engine's covers, requires and classes (module docstring).

    With `levels`, one cover per coordinate i and level l, the vertices
    at l on i, and each vertex requires the levels 0..v[i] on every i.
    Each coordinate's levels form one class, capped by the bound on a
    family of the other coordinates' thresholds ("Level capacities").
    Otherwise one cover per coordinate, the vertices at 0 there, which
    every vertex requires (requires None), and no classes.
    """
    if not levels:
        return [level[0] for level in graph.levels], None, ()
    covers = [bits for level in graph.levels for bits in level]
    requires = [0] * graph.n
    classes = []
    first = 0  # index of this coordinate's level-0 cover
    for c, (level, column) in enumerate(zip(graph.levels, zip(*graph.vectors))):
        # prefix[l] is the bit set of this coordinate's covers for levels 0..l.
        prefix = [((2 << l) - 1) << first for l in range(len(level))]
        requires = list(map(operator.or_, requires, map(prefix.__getitem__, column)))
        classes.append((prefix[-1], _level_cap(graph.ks[:c] + graph.ks[c + 1 :])))
        first += len(level)
    return covers, requires, classes


def _search(
    seq, box: SearchBox, limits: SearchLimits, workers: int, target=None, ranked=False
) -> SearchResult:
    """The one search driver (module docstring, "One driver").

    Searches the instance in the canonical coordinate order and reports
    it in the caller's (module docstring, "Coordinate order").
    Searches the box as one slice, or with `ranked` its rank slices
    0..floor(sum(limits)/2) in increasing rank, starting from the
    translated product family (module docstring, "Mirrored slices") and
    skipping any slice no larger than the incumbent.  A box search uses
    level covers and level capacities, and with a `target` it searches
    only box ∩ [0, target - 1]^w (module docstring, "Level covers",
    "Level capacities" and "Clipping"); the result still reports `box`.
    A ranked search uses zero covers and no classes.  The result carries
    the verdict (module docstring, "One driver"); its notes hold only a
    build error's text, if the build raised one.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    start = time.monotonic()
    deadline = None if limits.time_limit is None else start + limits.time_limit
    levels = not ranked
    searched = box
    if levels and target is not None:
        searched = SearchBox(tuple(min(x, target - 1) for x in box.limits))
    # Search the instance in the canonical coordinate order, and map its
    # witness back (module docstring, "Coordinate order").
    order = sorted(range(box.width), key=lambda c: (seq[c], -searched.limits[c]))
    back = sorted(range(box.width), key=order.__getitem__)
    canon_ks = [seq[c] for c in order]
    canon = SearchBox(tuple(searched.limits[c] for c in order))
    best, witness, nodes, truncated, notes = 0, Family(box.width), 0, False, ()
    if ranked:
        what = f"largest rank slice of box {box}"
        counts = [1]  # counts[r]: the points of rank r, one coordinate at a time
        for x in box.limits:
            counts = [sum(counts[max(0, r - x) : r + 1]) for r in range(len(counts) + x)]
        # The upper slices mirror into the lower ones ("Mirrored slices").
        slices = list(enumerate(counts[: sum(box.limits) // 2 + 1]))
        seed = product_family(seq[0], box.width)
        witness = seed.translate([-min(column) for column in zip(*seed)])
        best = len(witness)
    else:
        what = f"box {searched}"
        slices = [(None, searched.size)]
    try:
        _check_memory(what, max(n for _, n in slices), searched, limits.memory_mb, workers)
        for rank, n in slices:
            if n <= best:
                continue
            graph = build_compatibility_graph(canon_ks, canon, limits.memory_mb, rank, deadline)
            covers, requires, classes = _covers(graph, levels)
            rem = _remaining(limits, start, nodes)
            symmetry = _RootStabilizer(graph)
            res = max_clique_parallel(
                graph.adj, symmetry.roots(), best, target,
                rem.node_limit, rem.time_limit, workers, covers, requires, symmetry, classes,
            )
            nodes += res.nodes
            truncated = truncated or res.truncated
            if res.size > best:
                best = res.size
                members = [graph.vectors[i] for i in res.members]
                witness = Family(box.width, [tuple(map(v.__getitem__, back)) for v in members])
    except (BoxTooLargeError, BuildDeadlineError) as exc:
        # A build error names the canonical box; the note names the caller's.
        truncated, notes = True, (str(exc).replace(f"box {canon}", f"box {searched}"),)
    # A raising check, not an assert: python -O must not let a wrong
    # witness through.
    report = verify(witness, seq)
    if len(witness) != best or not report.ok or (ranked and not report.is_ranked):
        kind = "constant-rank verifying family" if ranked else "verifying family"
        raise RuntimeError(
            f"search produced a witness that is not a {kind} of "
            f"size {best}: {list(witness.vectors)}"
        )
    found = target is not None and best >= target
    exhaustive = found or (not truncated and (ranked or box.complete_for > best))
    return SearchResult(
        best_size=best,
        witness=witness,
        exhaustive=exhaustive,
        nodes=nodes,
        elapsed=time.monotonic() - start,
        box=box,
        target=target,
        truncated=truncated,
        notes=notes,
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

    The default box is the compression box [0, m-1]^w.  A found witness
    is returned as soon as the engine hits size m.  Only the part of the
    box inside [0, m-1]^w is built and searched (module docstring,
    "Clipping"); the result still reports the given box, and a refuted
    target its exact in-box maximum b, which with the refutation is
    global when the box contains [0, b]^w, as the default box does.
    """
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    seq = threshold_seq(ks, w)
    m = _target_size(m)
    if box is None:
        box = compression_box(seq, w, m)
    if box.width != w:
        raise ValueError(f"box width {box.width} != {w}")
    res = _search(seq, box, limits or SearchLimits(), workers, target=m)
    best = res.best_size
    if res.found:
        note = f"witness of size {best} found in box {box}"
    elif res.truncated:
        note = f"truncated before exhausting box {box}; best found {best}"
    else:
        scope = f"within box {box} only"
        if res.exhaustive:
            scope = f"global, as the box contains [0,{best}]^{w}"
        note = (
            f"no family of size {m} in box {box}; refutation is {scope}; "
            f"in-box maximum is {best}"
        )
    return replace(res, notes=res.notes or (note,))


def max_family_in_box(
    ks, box: SearchBox, limits: SearchLimits | None = None, workers: int = 1
) -> SearchResult:
    """Maximum verifying family within an explicit box.

    The answer is definitive for the box whenever the search is not
    truncated, and global (`exhaustive`) when the box also contains
    [0, best_size]^w (module docstring, "Box completeness").
    """
    seq = threshold_seq(ks, box.width)
    res = _search(seq, box, limits or SearchLimits(), workers)
    best = res.best_size
    if res.truncated:
        note = f"truncated; {best} is only a lower bound for box {box}"
    else:
        note = f"in-box maximum for {box} is {best}"
    return replace(res, notes=res.notes or (note,))


def max_family_size(
    ks, w: int, limits: SearchLimits | None = None, workers: int = 1
) -> SearchResult:
    """Certify the maximum family size by growing complete boxes.

    Seeds from the generalized product construction, then asks
    exists_family for one more vector over a complete box until a
    target is refuted (certified answer) or a resource cap bites (the
    best-so-far is returned with exhaustive=False).  The box for target
    m is the compression box [0, m-1]^w, complete for every ks (module
    docstring, "Box completeness").
    """
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    seq = threshold_seq(ks, w)
    limits = limits or SearchLimits()
    start = time.monotonic()
    witness = normalize(generalized_product_family(seq), seq)
    best = len(witness)
    upper = math.prod(seq)
    nodes = 0
    while True:
        res = exists_family(seq, w, best + 1, None, _remaining(limits, start, nodes), workers)
        nodes += res.nodes
        if not res.found:
            break
        best, witness = res.best_size, res.witness
        if best > upper:
            raise RuntimeError(
                f"search found size {best}, above the proven upper bound {upper}"
            )
    # Size best + 1 was not found, so the box holds no larger family; a
    # complete box also holds a copy of the best one, so its maximum is best.
    if res.exhaustive:
        status = f"certified maximum family size {best}"
        if res.best_size == best:
            witness = res.witness
    else:
        status = f"best found {best}; not certified"
    return SearchResult(
        best_size=best,
        witness=witness,
        exhaustive=res.exhaustive,
        nodes=nodes,
        elapsed=time.monotonic() - start,
        box=res.box,
        truncated=res.truncated,
        notes=(status,) + res.notes,
    )


def ranked_max_family_size(
    k: int, w: int, limits: SearchLimits | None = None, workers: int = 1
) -> SearchResult:
    """Certified maximum size of a constant-rank verifying family.

    The box [0, (w-1)(k-1)]^w is complete for constant-rank families by
    the translation argument in the module docstring, and its rank
    slices above half its rank spread mirror into the lower ones
    ("Mirrored slices"), so only slices 0..floor(w(w-1)(k-1)/2) are
    searched.  The search starts from the product family's k^(w-1)
    vectors, so the certified value is k^(w-1) wherever the search
    completes, and even a truncated result reports at least that.  The
    largest slice's adjacency, complement rows and coordinate masks are
    charged against `memory_mb` before any slice is built; going over,
    or running out of time while building a slice, returns a truncated
    result whose note is the build's error.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    side = (w - 1) * (k - 1)
    box = SearchBox((side,) * w)
    res = _search((k,) * w, box, limits or SearchLimits(), workers, ranked=True)
    if res.truncated:
        note = f"best found {res.best_size}; truncated"
    else:
        note = (
            f"certified maximum constant-rank family size {res.best_size} (every "
            f"ranked family translates into box {box}; rank slices "
            f"0..{w * side // 2} of 0..{w * side}, the upper ones by reflection)"
        )
    return replace(res, notes=res.notes or (note,))


# ---------------------------------------------------------------------------
# Cross digraph and compression.


@dataclass
class CrossDigraph:
    """Directed edges witnessing how levels on one coordinate c interact.

    A short edge A -> B steps down one level (A[c] - B[c] = 1) while B
    dominates A elsewhere; a long edge jumps up ks[c] - 1 levels while A
    beats B by at least ks[i] on some other coordinate i.  Paths to
    level 0 are what compression preserves (module docstring, "Box
    completeness").  `ks` holds one threshold per coordinate.
    """

    family: Family
    ks: tuple[int, ...]
    coord: int  # 1-based
    short_edges: frozenset[tuple[Vector, Vector]]
    long_edges: frozenset[tuple[Vector, Vector]]

    def successors(self) -> dict[Vector, set[Vector]]:
        succ: dict[Vector, set[Vector]] = {v: set() for v in self.family}
        for a, b in self.short_edges | self.long_edges:
            succ[a].add(b)
        return succ


def _check_digraph_input(family: Family, ks, coord: int):
    # Preconditions of the cross digraph; returns (thresholds, 0-based coord).
    seq = threshold_seq(ks, family.width)
    if not 1 <= coord <= family.width:
        raise ValueError(f"coordinate {coord} out of range 1..{family.width}")
    if not verify(family, seq).ok:
        raise ValueError(f"family does not verify for ks={','.join(map(str, seq))}")
    c = coord - 1
    for v in family:
        if v[c] < 0:
            raise ValueError(f"vector {v} negative on coordinate {coord}")
    return seq, c


def _off_coordinate_rows(vectors, seq, c: int) -> list[tuple[int, int]]:
    # lower[A] and far[A] for each vector A (module docstring, "Box completeness").
    columns = list(zip(*vectors))
    others = [_relation_table(columns[i], seq[i]) for i in range(len(columns)) if i != c]
    rows = []
    for a in vectors:
        lower = far = 0
        for table, x in zip(others, a[:c] + a[c + 1 :]):
            lower, far = lower | table[x][0], far | table[x][2]
        rows.append((lower, far))
    return rows


def _edge_rows(vectors, c: int, off, k: int) -> list[tuple[int, int]]:
    # Each vector's short and long successors, from the levels of c.
    level: dict[int, int] = {}
    for j, v in enumerate(vectors):
        level[v[c]] = level.get(v[c], 0) | 1 << j
    return [
        (level.get(v[c] - 1, 0) & ~lower, level.get(v[c] + k - 1, 0) & far)
        for v, (lower, far) in zip(vectors, off)
    ]


def build_cross_digraph(family: Family, ks, coord: int) -> CrossDigraph:
    """Short/long edge digraph of a verifying family on one coordinate.

    `ks` is an int or one threshold per coordinate.  The family must
    verify for ks and be nonnegative on `coord` (1-based).
    """
    seq, c = _check_digraph_input(family, ks, coord)
    vs = family.vectors
    rows = _edge_rows(vs, c, _off_coordinate_rows(vs, seq, c), seq[c])
    short = frozenset((a, vs[j]) for a, (row, _) in zip(vs, rows) for j in _bits(row))
    long = frozenset((a, vs[j]) for a, (_, row) in zip(vs, rows) for j in _bits(row))
    return CrossDigraph(family, seq, coord, short, long)


def compress(family: Family, ks, coord: int) -> Family:
    """Fixpoint compression of one coordinate of a verifying family.

    `ks` is an int or one threshold per coordinate.  While some vector
    has no digraph path to level 0, the canonically least such vector
    and all its successors move down one level (none of them sits at
    level 0, else the chosen vector would have a path).  At the fixpoint
    every vector reaches level 0 and the attained levels form an
    interval of nonnegative integers starting at 0.  Size and
    verification are preserved (module docstring, "Box completeness");
    the result is idempotent under repeated compression of the same
    coordinate.
    """
    seq, c = _check_digraph_input(family, ks, coord)
    vectors = list(family.vectors)
    off = _off_coordinate_rows(vectors, seq, c)
    everyone = (1 << len(vectors)) - 1
    while True:
        succ = [short | long for short, long in _edge_rows(vectors, c, off, seq[c])]
        floor = sum(1 << j for j, v in enumerate(vectors) if v[c] == 0)
        # Reverse closure: pass over the rest until no vector joins.
        reached, last = floor, None
        while reached != last:
            last = reached
            for j in _bits(everyone & ~reached):
                if succ[j] & reached:
                    reached |= 1 << j
        stuck = everyone & ~reached
        if not stuck:
            break
        moving = frontier = 1 << min(_bits(stuck), key=vectors.__getitem__)
        while frontier:
            nxt = 0
            for j in _bits(frontier):
                nxt |= succ[j]
            frontier = nxt & ~moving
            moving |= frontier
        if moving & floor:
            moved = sorted(vectors[j] for j in _bits(moving))
            raise RuntimeError(f"compression would move {moved} below 0")
        for j in _bits(moving):
            v = vectors[j]
            vectors[j] = v[:c] + (v[c] - 1,) + v[c + 1 :]
        if len(set(vectors)) != len(vectors):
            raise RuntimeError(f"compression merged two vectors on coordinate {coord}")
    return Family(family.width, vectors)
