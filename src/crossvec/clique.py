"""Branch-and-bound maximum clique over bitmask adjacency.

Vertices are 0..n-1, one per row of adj (n = len(adj)), and adjacency
rows are Python ints used as bit sets, which keeps the inner loops on
C-level big-int operations.  The solver is the classic greedy-colouring
branch and bound: candidate sets are colour-sorted, the colour number
bounds any clique extension, and branches that cannot beat the
incumbent are cut.  Rows must be loop-free (row v never holds bit v); a
self-loop raises ValueError.

Vertex order.  The engine works from the top bit down, because a bit
set's largest vertex is the one Python finds without allocating:
q = x.bit_length() is vertex q - 1.  Branching at the top level is on
the maximum vertex: root i explores exactly the cliques whose largest
vertex (in index order) is i, and the default roots are n-1 down to 0.
A caller may therefore restrict the roots to any set R that is
guaranteed to contain the largest vertex of at least one maximum clique
image under symmetries of the graph; the search stays exact.  The
engine is the mirror image (i -> n-1-i) of one that branches from the
least vertex: on the mirrored instance it takes the same branches, in
the same order, and counts the same nodes.  `search` lists its lattice
points in decreasing lexicographic order for that reason.

A caller may also pass `covers`, a sequence of vertex bitmasks, and
`requires`, one bit set of cover indices per vertex: a clique counts
only if it meets every cover that one of its members requires, and the
result is the largest such clique (size 0, or `initial`, when none
exists).  Without `requires` every vertex requires every cover, so the
recorded cliques are those that meet all masks.  The search carries the
covers the current clique meets (`met`) and the required ones it does
not meet yet (`pend`); adding v gives
pend' = (pend | requires[v]) & ~(met | member[v]), where member[v] is
the set of covers that hold v.  A branch is cut as soon as a pending
cover is disjoint from the candidate set, since no extension could then
meet it.  Each node, the roots' included, opens with one walk over its
pending covers from the top bit down: a cover with no candidate ends
the node before it is counted, and otherwise the walk notes a cover
with a single candidate (below).  Removing vertex v from the candidates
can only empty masks that contain v, so the branching loop re-checks
just those and ends the node when one has emptied.  A clique is
recorded when it has no candidates left, and also earlier when it has
no pending cover but does not meet every cover: an extension could then
require a cover it cannot meet, so the largest qualifying clique need
not be maximal.
Without `requires` a clique with no pending cover meets every cover,
and only the leaves are recorded.

Count cut.  With `requires` given, the covers are split greedily, in
index order, into classes of pairwise disjoint masks (a cover joins the
first class it is disjoint from).  A vertex lies in at most one cover
of a class, so a node with c pending covers in one class needs at least
c more vertices; `need` is the largest such c.  Without `requires` no
classes are formed and need is 0, so a plain cover search takes every
branch that a full colouring takes (below), apart from its forced
vertices and the support filter.

Forced vertices.  A clique S recorded below a node must meet every
cover pending at the node, and S's own vertices meet none of them, so
it meets each of them in a candidate.  When a pending cover holds a
single candidate u, every clique that can still be recorded there holds
u, and the node takes u without branching: it pushes u, updates cand,
met and pend as for a child, records S + u under the recording rule
below, returns if depth + |cand| is no more than the incumbent, and
scans the pending covers again from the top bit down, for one that has
lost its last candidate (a cut) or for the next forced vertex.  The
cliques skipped are exactly those that miss the cover, none of which
could be recorded, so the search stays exact.  A node is counted once,
after its entry walk, and its forced vertices add none; the walk hands
it its first forced vertex.  Which single cover is taken first changes
neither the result nor the node count.  Forcing is unit propagation,
and it is confluent: a forced vertex stays forced after another is
pushed unless the two are not adjacent, and then either order ends in
a cut; so every order reaches the same cut or the same set of forced
vertices.  A return on the size check before that fixpoint excludes a
record at it, since depth + |cand| only falls as vertices are forced.
The rule composes with the rest.  A forced vertex is a candidate, so it
lies below the root and the root stays the clique's largest vertex.
The count cut and the colour bound (below) are taken after the forced
vertices, at the depth they reach.  Every clique the node pushes,
forced or branched, goes through the recording rule, and every clique
the forced rule skips misses a pending cover and never qualifies; so
the recorded sizes, and with them `initial`, `stop_at` and the
workers' merge, are those of the search without the rule.

Support filter.  After its forced vertices a node with pending covers
drops every candidate that no clique recorded below it can hold.  Such
a clique adds to the stack a set T of candidates that meets each
pending cover C (the argument above), and every other vertex of T is a
neighbour of T's vertex in C.  The node walks the pending covers from
the top bit down with keep, at first cand: for each C it takes
H = C & keep and sets keep &= H | (the union of the rows of H's
vertices).  H comes from the candidates the earlier covers left, not
from cand, so each cover narrows the ones after it; this stays exact,
since T lies in keep after every earlier cover, so its vertex in C lies
in H and the rest of T in that vertex's row.  An empty H is a cut, and
the node returns at once.  The argument uses no property of the covers,
so level covers and zero covers alike keep the search exact.  If cand
shrank, the node sets cand = keep, returns when depth + |cand| is no
more than the incumbent, and scans the pending covers from the top bit
down as after a forced vertex: a cover walked early may have lost its
last candidate to a later one (a cut), or be left with one (a forced
vertex).  The rule composes with forced vertices as one loop: forced
vertices, then a filter pass, then back to forced vertices whenever a
shrinking pass leaves a single candidate in a pending cover, and each
new forced vertex is followed by a new pass.  The node colours once a
pass leaves cand as it was, or shrinks it and leaves no cover single;
the filter is not repeated to a fixpoint.  The count cut, the colouring
and its bound (below) see the filtered candidates.  A clique that meets
every pending cover keeps all its candidates: by the same induction
each is a neighbour of the clique's vertex in each cover, taken from
keep.  So every clique that qualifies has the same candidates with and
without the filter, and goes through the recording rule as before.
Every clique the filter skips holds a dropped vertex, so it misses a
pending cover and never qualifies.  So the recorded sizes, and with
them `initial`, `stop_at` and the workers' merge, are those of the
search without the filter; only the node count and, among cliques of
one size, the witness found first can change.

Colouring.  After the forced vertices and the support filter a node
colours its candidates greedily, one colour class at a time: a class
takes the largest candidate left, drops it and its neighbours from the
class, and repeats.  A clique grown at depth d from a colour-c vertex
gains at most c vertices, so the node branches on the coloured vertices
from the highest colour down and returns at the first vertex whose c
has d + c <= the incumbent size.  The incumbent only grows, so every
vertex of a colour below k_min = max(incumbent - d + 1, need) (taken
when the colouring starts) could not lead to a larger clique that meets
its pending covers; those classes are peeled off the candidates without
being recorded.  Only the vertices that can branch are kept: one list
of them, class by class, and the end offset of each class, whose colour
follows from its place since kept colours are consecutive.  Every
per-vertex table is indexed by bit_length, q = v + 1, so the largest
vertex of a bit set finds its row, its cover bits and its requirements
without an addition; the stack holds the same q.  One table per search,
drop[q] = the vertices below q - 1 that are not its neighbours, removes
a picked vertex and its neighbours from a class with a single AND.  The
pick is the class's largest vertex, so the lower part of each row is
enough, and the table takes about half the memory of the adjacency.  A
class leaves the candidates with the union nb of its members' rows: it
is independent and takes every candidate that is no member's
neighbour, so the candidates it leaves are exactly those in nb, and
cand &= nb removes it (this is where a self-loop would keep a member in
cand).  Apart from the count cut, the forced vertices and the support
filter, the classes, their order and every branch taken are those of a
full colouring.

Workers > 1 splits the roots round-robin across processes.  Each worker
finishes its share, so sizes are schedule-independent; among equal
sizes the merged witness is the member tuple that is least once the
indices are mirrored.  A node limit is a budget for the whole call: the
workers get shares of it that sum to it, so a node count never exceeds
the limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence


class _OutOfBudget(Exception):
    pass


class _TargetReached(Exception):
    pass


@dataclass(frozen=True)
class CliqueResult:
    size: int
    members: tuple[int, ...]
    nodes: int
    truncated: bool


def _classes(covers: tuple[int, ...]) -> tuple[int, ...]:
    # Greedy split into pairwise disjoint masks; each class is a bit set
    # of cover indices.
    classes: list[int] = []
    unions: list[int] = []
    for j, mask in enumerate(covers):
        for c, union in enumerate(unions):
            if not union & mask:
                classes[c] |= 1 << j
                unions[c] |= mask
                break
        else:
            classes.append(1 << j)
            unions.append(mask)
    return tuple(classes)


class _Search:
    def __init__(self, adj, covers, requires, node_limit, deadline):
        n = len(adj)
        self.node_limit = node_limit
        self.deadline = deadline
        self.nodes = 0
        self.best_size = 0
        self.best: tuple[int, ...] = ()
        # The clique's vertices by bit_length (q = v + 1), as every
        # per-vertex table below is indexed; entry 0 of a table is never read.
        self.stack: list[int] = []
        self.stop_at: int | None = None
        # rows[v + 1] is row v, and drop[v + 1] keeps the vertices below v
        # that are not its neighbours; removing a colour class by its
        # members' rows needs loop-free rows (module docstring, "Colouring").
        self.rows = rows = [0]
        self.drop = drop = [0]
        for v in range(n):
            row = adj[v]
            if row >> v & 1:
                raise ValueError(f"adjacency row {v} holds its own bit (a self-loop)")
            below = (1 << v) - 1
            rows.append(row)
            drop.append(row & below ^ below)
        covers = tuple(covers)
        self.all_covers = all_covers = (1 << len(covers)) - 1
        if requires is None:
            requires = [all_covers] * n
            self.classes = ()
        else:
            requires = list(requires)
            if len(requires) != n:
                raise ValueError(f"requires has {len(requires)} entries, not {n}")
            if requires and (min(requires) < 0 or max(requires) > all_covers):
                raise ValueError(f"requires names a cover outside 0..{len(covers) - 1}")
            self.classes = _classes(covers)
        self.requires = [0] + requires
        # covers[j + 1] is mask j, so a cover's bit finds its mask by
        # bit_length too.
        self.covers = (0,) + covers
        for j, mask in enumerate(covers):
            if mask < 0 or mask >> n:
                raise ValueError(f"cover mask {j} has bits outside vertices 0..{n - 1}")
        # member[v + 1] has bit j set iff vertex v lies in covers[j]: read
        # vertex v's column of the covers' bit strings, last cover first.
        columns = [bin(mask)[:1:-1].ljust(n, "0") for mask in reversed(covers)]
        member = map(int, map("".join, zip(*columns)), repeat(2, n)) if columns else repeat(0, n)
        self.member = [0, *member]

    def _record(self, size):
        self.best_size = size
        self.best = tuple(q - 1 for q in self.stack)
        if self.stop_at is not None and size >= self.stop_at:
            raise _TargetReached

    def _expand(self, depth, cand, met, pend):
        # The stack holds `depth` vertices, cand is not empty and `pend` is
        # the bit set of covers the stack requires but does not meet.
        # Forced vertices stay on the stack; the caller pops them.
        covers = self.covers
        # Walk every pending cover from the top bit down: a cover with no
        # candidate cuts the node before it is counted, and one with a
        # single candidate gives the first forced vertex.
        single = 0
        bits = pend
        while bits:
            b = bits.bit_length()
            hit = covers[b] & cand
            if not hit & (hit - 1):
                if not hit:
                    return
                single = hit
            bits ^= 1 << (b - 1)
        rows = self.rows
        member = self.member
        requires = self.requires
        all_covers = self.all_covers
        stack = self.stack
        # Refuse a node before counting it, so nodes never exceeds the limit.
        if self.node_limit is not None and self.nodes >= self.node_limit:
            raise _OutOfBudget
        self.nodes += 1
        if self.deadline is not None and not self.nodes & 255:
            if time.monotonic() > self.deadline:
                raise _OutOfBudget
        # Forced vertices and the support filter (module docstring), until
        # a filter pass leaves cand as it was or leaves no cover single.
        filtered = False
        while True:
            if single:
                q = single.bit_length()
                stack.append(q)
                depth += 1
                cand &= rows[q]
                met |= member[q]
                pend = (pend | requires[q]) & ~met
                if not pend and depth > self.best_size and (not cand or met != all_covers):
                    self._record(depth)
                filtered = False
            elif filtered:
                break
            else:
                # From the top bit down, keep a candidate only if it lies in
                # the cover or next to one of the cover's candidates still
                # kept.  `miss` starts as the kept candidates outside the
                # cover and loses each cover candidate's neighbours.
                keep = cand
                bits = pend
                while bits:
                    b = bits.bit_length()
                    hit = covers[b] & keep
                    if not hit:
                        return
                    miss = keep & ~covers[b]
                    while miss and hit:
                        q = hit.bit_length()
                        miss ^= miss & rows[q]
                        hit ^= 1 << (q - 1)
                    keep ^= miss
                    bits ^= 1 << (b - 1)
                if keep == cand:
                    break
                cand = keep
                filtered = True
            if depth + cand.bit_count() <= self.best_size:
                return
            # Scan the pending covers from the top bit down for a cut or the
            # next forced vertex.
            single = 0
            bits = pend
            while bits:
                b = bits.bit_length()
                hit = covers[b] & cand
                if not hit & (hit - 1):
                    if not hit:
                        return
                    single = hit
                    break
                bits ^= 1 << (b - 1)
        kmin = self.best_size - depth + 1
        if pend.bit_count() > kmin:  # else no class can need more
            for c in self.classes:
                need = (pend & c).bit_count()
                if need > kmin:
                    kmin = need
        # Colour the candidates; the classes of colour >= kmin are kept
        # in order, class i ending at ends[i + 1], and the lower ones are
        # peeled off unrecorded.  A class leaves in the rest exactly the
        # neighbours of its members (module docstring), so left &= nb
        # removes it.
        drop = self.drop
        order = []
        ends = [0]
        color = 0
        left = cand
        while left:
            color += 1
            group = left
            nb = 0
            if color < kmin:
                while group:
                    q = group.bit_length()
                    group &= drop[q]
                    nb |= rows[q]
            else:
                while group:
                    q = group.bit_length()
                    group &= drop[q]
                    nb |= rows[q]
                    order.append(q)
                ends.append(len(order))
            left &= nb
        # Branch from the highest colour down, the last vertex of a class first.
        for i in range(len(ends) - 1, 0, -1):
            for q in reversed(order[ends[i - 1] : ends[i]]):
                if depth + color <= self.best_size:
                    return
                new_cand = cand & rows[q]
                new_met = met | member[q]
                rest = (pend | requires[q]) & ~new_met
                stack.append(q)
                if (
                    not rest
                    and depth + 1 > self.best_size
                    and (not new_cand or new_met != all_covers)
                ):
                    self._record(depth + 1)
                if new_cand:
                    self._expand(depth + 1, new_cand, new_met, rest)
                del stack[depth:]
                cand ^= 1 << (q - 1)
                # Only the pending covers that contain the vertex can have emptied.
                bits = pend & member[q]
                while bits:
                    b = bits.bit_length()
                    if not covers[b] & cand:
                        return
                    bits ^= 1 << (b - 1)
            color -= 1

    def run(self, roots, initial, stop_at):
        self.best_size = initial
        self.stop_at = stop_at
        truncated = False
        try:
            for i in roots:
                if self.stop_at is not None and self.best_size >= self.stop_at:
                    break
                cand = self.rows[i + 1] & ((1 << i) - 1)
                if 1 + cand.bit_count() <= self.best_size:
                    continue
                met = self.member[i + 1]
                pend = self.requires[i + 1] & ~met
                self.stack.append(i + 1)
                if (
                    not pend
                    and self.best_size < 1
                    and (not cand or met != self.all_covers)
                ):
                    self._record(1)
                if cand:
                    self._expand(1, cand, met, pend)
                self.stack.clear()
        except _TargetReached:
            self.stack.clear()
        except _OutOfBudget:
            truncated = True
            self.stack.clear()
        return CliqueResult(
            size=self.best_size,
            members=tuple(sorted(self.best)),
            nodes=self.nodes,
            truncated=truncated,
        )


def _root_list(adj, roots) -> list[int]:
    # n-1 down to 0 by default; checked before any worker starts.
    n = len(adj)
    roots = list(range(n - 1, -1, -1) if roots is None else roots)
    if roots and not 0 <= min(roots) <= max(roots) < n:
        raise ValueError(f"roots span {min(roots)}..{max(roots)}, outside vertices 0..{n - 1}")
    return roots


def max_clique(
    adj: Sequence[int],
    roots: Iterable[int] | None = None,
    initial: int = 0,
    stop_at: int | None = None,
    node_limit: int | None = None,
    time_limit: float | None = None,
    covers: Sequence[int] = (),
    requires: Sequence[int] | None = None,
) -> CliqueResult:
    """Exact maximum clique, optionally stopping once `stop_at` is hit.

    `initial` is an incumbent size: only cliques strictly larger are
    recorded, so a result with size == initial has empty members (no
    improvement found).  `roots` restricts top-level branching, and
    `covers` with `requires` restricts the recorded cliques, both as
    described in the module docstring; None and () mean no restriction.
    A self-loop (row v holding bit v), a cover mask with a bit outside
    0..n-1, a `requires` entry that is not one bit set per vertex over
    the covers, or a root outside 0..n-1 raises ValueError; n is
    len(adj).
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    search = _Search(adj, covers, requires, node_limit, deadline)
    return search.run(_root_list(adj, roots), initial, stop_at)


def _worker(args):
    return max_clique(*args)


def max_clique_parallel(
    adj: Sequence[int],
    roots: Iterable[int] | None = None,
    initial: int = 0,
    stop_at: int | None = None,
    node_limit: int | None = None,
    time_limit: float | None = None,
    workers: int = 1,
    covers: Sequence[int] = (),
    requires: Sequence[int] | None = None,
) -> CliqueResult:
    """Split roots across processes; exact results merge deterministically."""
    root_list = _root_list(adj, roots)
    covers = tuple(covers)
    if workers <= 1 or len(root_list) <= 1:
        return max_clique(
            adj, root_list, initial, stop_at, node_limit, time_limit, covers, requires
        )
    chunks = [root_list[i::workers] for i in range(workers)]
    chunks = [c for c in chunks if c]
    # One node budget for the call: the shares (N + i) // len(chunks) sum to N.
    jobs = [
        (
            list(adj), c, initial, stop_at,
            None if node_limit is None else (node_limit + i) // len(chunks),
            time_limit, covers, requires,
        )
        for i, c in enumerate(chunks)
    ]
    # Imported here: concurrent.futures is a sizeable share of `import crossvec`.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        results = list(pool.map(_worker, jobs))
    best_size = max(r.size for r in results)
    # Among equal sizes prefer the member tuple that is least when the
    # indices are mirrored (i -> n-1-i): the one whose reversal is largest.
    members = max((r.members for r in results if r.size == best_size), key=lambda m: m[::-1])
    return CliqueResult(
        size=best_size,
        members=members,
        nodes=sum(r.nodes for r in results),
        truncated=any(r.truncated for r in results),
    )
