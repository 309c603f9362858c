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
guaranteed to contain the largest vertex i of a canonical image: among
the images of some maximum qualifying clique (below) under a group G of
symmetries of the graph that map the covers and requires onto
themselves, one whose largest vertex is largest.  The search stays
exact.  Every element of G that fixes i keeps i the largest vertex of
the image it maps the canonical one to, so the canonical image's other
members have their whole orbit under i's stabilizer below i; a caller
may restrict root i to those candidates as well ("Root symmetry",
below).  The engine is the mirror image (i -> n-1-i) of one that
branches from the least vertex: on the mirrored instance it takes the
same branches, in the same order, and counts the same nodes.  `search` lists its lattice
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
meet it.  A node opens with its own vertex: the root, or the vertex its
parent branches on.  It takes that vertex through the step that takes a
forced vertex (below): push it, narrow cand to its row, update met and
pend, apply the recording rule, and return if no candidate is left.
Then it walks its pending covers from the top bit down: a cover with no
candidate ends the node, and otherwise the walk notes a cover with a
single candidate (below).  The node is counted after this first walk,
so a root with no lower candidate, or a node that the walk cuts, costs
no node.  Removing vertex v from the candidates can only empty masks
that contain v, so the branching loop re-checks just those and ends the
node when one has emptied.  A clique is recorded when it has no
candidates left, and also earlier when it has no pending cover but does
not meet every cover: an extension could then require a cover it cannot
meet, so the largest qualifying clique need not be maximal.
Without `requires` a clique with no pending cover meets every cover,
and only the leaves are recorded.

Count cut.  A caller may also pass `classes`, pairs (bits, cap): bits
is a bit set of cover indices whose masks are pairwise disjoint, and
cap is read by the capacity cut (below).  A vertex lies in at most one
cover of a class, so a node with c pending covers in one class needs at
least c more vertices; `need` is the largest such c.  Without classes
need is 0, so a plain cover search takes every branch that a full
colouring takes (below), apart from its forced vertices and the support
filter.  A class that names a cover outside 0..len(covers)-1, or whose
masks overlap, raises ValueError.

Capacity cut.  A class's cap must bound the clique number of the graph
on each of its masks: no clique holds more than cap vertices of one
mask.  Once per node, after its forced vertices and support filter,
let X be the stack's vertices together with the candidates.  Every
clique recorded below the node lies in X, so it holds at most
min(cap, |M & X|) vertices of each mask M of a class, and at most every
vertex of X outside the class's masks, which the cap does not bound.
The sum of these terms, the class's room, bounds every such clique,
and the node returns when some class's room is at most the incumbent.
A subtree cut this way holds no clique larger than the incumbent, so it
would record nothing: the recorded cliques, in their order, and with
them `initial`, `stop_at`, the witness and the workers' merge are those
of the search without the cut, and only the node count falls.  A cap
of n or more never cuts, since the room is then |X| = depth + |cand|,
which the node has already found larger than the incumbent.

Forced vertices.  A clique S recorded below a node must meet every
cover pending at the node, and S's own vertices meet none of them, so
it meets each of them in a candidate.  When a pending cover holds a
single candidate u, every clique that can still be recorded there holds
u, and the node takes u without branching, by the step that took its
own vertex: it pushes u, updates cand, met and pend, records S + u
under the recording rule below, returns if no candidate is left, and
walks the pending covers again from the top bit down, for one that has
lost its last candidate (a cut) or for the next forced vertex.  After
every walk, the first included, the node returns if depth + |cand| is
no more than the incumbent.  The cliques skipped are exactly those that
miss the cover, none of which could be recorded, so the search stays
exact.  A node is counted once, after its first walk, and its forced
vertices add none.  The first walk visits every pending cover and keeps
the last single it meets, the lowest such cover's, as the first forced
vertex; every later walk stops at the first single it meets.  Which
single cover is taken first changes neither the result nor the node
count.  Forcing is unit propagation, and it is confluent: a forced
vertex stays forced after another is pushed unless the two are not
adjacent, and then either order ends in a cut; so every order reaches
the same cut or the same set of forced vertices.  A return on the size
check before that fixpoint excludes a record at it, since
depth + |cand| only falls as vertices are forced.
The rule composes with the rest.  A forced vertex is a candidate, so it
lies below the root and the root stays the clique's largest vertex.
The capacity cut, the count cut and the colour bound (below) are taken
after the forced vertices, at the depth they reach.  Every clique the node pushes,
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
shrank, the node sets cand = keep and walks the pending covers as after
a forced vertex, then makes the same size check: a cover walked early
may have lost its last candidate to a later one (a cut), or be left
with one (a forced vertex).  The rule composes with forced vertices as
one loop: forced vertices, then a filter pass, then back to forced
vertices whenever a shrinking pass leaves a single candidate in a
pending cover, and each new forced vertex is followed by a new pass.
The node colours once a pass leaves cand as it was, or shrinks it and
leaves no cover single; the filter is not repeated to a fixpoint.  The
capacity and count cuts, the colouring and its bound (below) see the
filtered candidates.  A clique that meets every pending cover keeps all its
candidates: by the same induction each is a neighbour of the clique's
vertex in each cover, taken from keep.  So every clique that qualifies
has the same candidates with and without the filter, and goes through
the recording rule as before.
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
apart[q] = every vertex other than q - 1 that is not its neighbour,
removes a picked vertex and its neighbours from a class with a single
AND (the pick is the class's largest vertex, so the class holds nothing
above it).  The support filter reads the table the same way: one AND
removes a cover candidate's neighbours from the vertices outside the
cover, which never hold the candidate itself.  The table takes as much
memory as the adjacency.  A class leaves the candidates with the union
nb of its members' rows: it is independent and takes every candidate
that is no member's neighbour, so the candidates it leaves are exactly
those in nb, and cand &= nb removes it (this is where a self-loop would
keep a member in cand).  Apart from the capacity and count cuts, the forced vertices and
the support filter, the colour classes, their order and every branch
taken are those of a full colouring.

Root symmetry.  A caller may pass `symmetry`, a function that the engine
calls with a root i and its candidates cand (the vertices below i in
its row) once it reaches the root.  It returns None, which changes
nothing, or a pair (core, orbit) for a group H of symmetries of the
graph that fix i, map the covers onto covers and carry the requirements
with them (requires[t(v)] is the image of requires[v] under t in
H).  core, a subset of cand that is a union of H-orbits, replaces cand,
and orbit(v) is the bit set of v's H-orbit.  The root node then, while
its stack is i alone (no forced vertex taken), removes from cand the
whole orbit of each vertex q it has branched on rather than q alone,
skips a branch vertex already removed, and re-checks every pending
cover after a removal.  This keeps the root's result, the largest
qualifying clique that holds i and otherwise lies in core.  Take such a
clique S.  Its images under H qualify and lie in core, so the support
filter keeps them all, and the colouring and the capacity and count
cuts hold for any candidate set.  Let q be the first branch vertex that lies in some image
T.  No orbit removed before q meets an image: if the orbit of an earlier
branch vertex p met one, some image would hold p itself.  So T lies in
cand when the root branches on q, and that branch finds a clique at
least as large.  Below the root node, or after a forced vertex, the
stack holds vertices H need not fix, so an orbit may hold the only
images of a clique there: those nodes branch vertex by vertex as
before.  Only the node count and, among cliques of one size, the witness
found first can change.

Workers > 1 splits the roots round-robin across processes.  Each worker
finishes its share, so sizes are schedule-independent; among equal
sizes the merged witness is the member tuple that is least once the
indices are mirrored.  `symmetry` is pickled into each worker, which
calls it for its own roots.  A node limit is a budget for the whole
call: the workers get shares of it that sum to it, so a node count
never exceeds the limit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence


class _OutOfBudget(Exception):
    pass


class _TargetReached(Exception):
    pass


# symmetry(root, cand) -> None or (core, orbit) (module docstring, "Root symmetry").
Symmetry = Callable[[int, int], "tuple[int, Callable[[int], int]] | None"]


@dataclass(frozen=True)
class CliqueResult:
    size: int
    members: tuple[int, ...]
    nodes: int
    truncated: bool


class _Search:
    def __init__(self, adj, covers, requires, classes, node_limit, deadline):
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
        # The current root's orbit function, or None (module docstring,
        # "Root symmetry").
        self.orbit = None
        # rows[v + 1] is row v, and apart[v + 1] holds every vertex other
        # than v that is not its neighbour; removing a colour class by its
        # members' rows needs loop-free rows (module docstring, "Colouring").
        everyone = (1 << n) - 1
        self.rows = rows = [0]
        self.apart = apart = [0]
        for v in range(n):
            row = adj[v]
            if row >> v & 1:
                raise ValueError(f"adjacency row {v} holds its own bit (a self-loop)")
            rows.append(row)
            apart.append(everyone ^ row ^ (1 << v))
        covers = tuple(covers)
        self.all_covers = all_covers = (1 << len(covers)) - 1
        if requires is None:
            requires = [all_covers] * n
        else:
            requires = list(requires)
            if len(requires) != n:
                raise ValueError(f"requires has {len(requires)} entries, not {n}")
            if requires and (min(requires) < 0 or max(requires) > all_covers):
                raise ValueError(f"requires names a cover outside 0..{len(covers) - 1}")
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
        # The count cut reads each class's cover bits, the capacity cut its
        # masks, the vertices outside them and its cap (module docstring).
        self.classes = []
        self.capacities = []
        for bits, cap in classes:
            if bits < 0 or bits > all_covers:
                raise ValueError(f"a class names a cover outside 0..{len(covers) - 1}")
            masks = [covers[j] for j in range(len(covers)) if bits >> j & 1]
            union = 0
            for mask in masks:
                if union & mask:
                    raise ValueError(f"class {bits:#b} holds overlapping cover masks")
                union |= mask
            self.classes.append(bits)
            self.capacities.append((masks, everyone & ~union, cap))

    def _record(self, size):
        self.best_size = size
        self.best = tuple(q - 1 for q in self.stack)
        if self.stop_at is not None and size >= self.stop_at:
            raise _TargetReached

    def _expand(self, depth, cand, met, pend, q):
        # The stack holds `depth` vertices, `pend` is the bit set of covers
        # the stack requires but does not meet, and the node pushes q (a
        # bit_length), the root or a branch vertex in cand, as it pushes
        # its forced vertices.  The caller pops what the node leaves on
        # the stack.
        covers = self.covers
        rows = self.rows
        apart = self.apart
        member = self.member
        requires = self.requires
        all_covers = self.all_covers
        stack = self.stack
        counted = False
        filtered = False
        # Push q, its forced vertices and the support filter's passes (module
        # docstring), until a pass leaves cand as it was or no cover single.
        while True:
            if q:
                stack.append(q)
                depth += 1
                cand &= rows[q]
                met |= member[q]
                pend = (pend | requires[q]) & ~met
                if not pend and depth > self.best_size and (not cand or met != all_covers):
                    self._record(depth)
                if not cand:
                    return
                filtered = False
            elif filtered:
                break
            else:
                # From the top bit down, keep a candidate only if it lies in
                # the cover or next to one of the cover's candidates still
                # kept.  `miss` starts as the kept candidates outside the
                # cover and keeps only each cover candidate's non-neighbours
                # (never the candidate itself, which lies in the cover).
                keep = cand
                bits = pend
                while bits:
                    b = bits.bit_length()
                    hit = covers[b] & keep
                    if not hit:
                        return
                    miss = keep ^ hit
                    while miss and hit:
                        q = hit.bit_length()
                        miss &= apart[q]
                        hit ^= 1 << (q - 1)
                    keep ^= miss
                    bits ^= 1 << (b - 1)
                if keep == cand:
                    break
                cand = keep
                filtered = True
            # Walk the pending covers from the top bit down: a cover with no
            # candidate is a cut, and one with a single candidate gives the
            # next forced vertex, the last such cover's before the node is
            # counted and the first one's after.
            q = 0
            bits = pend
            while bits:
                b = bits.bit_length()
                hit = covers[b] & cand
                if not hit & (hit - 1):
                    if not hit:
                        return
                    q = hit.bit_length()
                    if counted:
                        break
                bits ^= 1 << (b - 1)
            if not counted:
                # Refuse a node before counting it, so nodes never exceeds the limit.
                if self.node_limit is not None and self.nodes >= self.node_limit:
                    raise _OutOfBudget
                self.nodes += 1
                if self.deadline is not None and not self.nodes & 255:
                    if time.monotonic() > self.deadline:
                        raise _OutOfBudget
                counted = True
            if depth + cand.bit_count() <= self.best_size:
                return
        # Capacity cut: a clique below the node lies in its stack and cand,
        # and holds at most cap vertices of each mask of a class.
        if self.capacities:
            best = self.best_size
            held = cand
            for q in stack:
                held |= 1 << (q - 1)
            for masks, outside, cap in self.capacities:
                room = (held & outside).bit_count()
                for mask in masks:
                    if room > best:
                        break
                    count = (held & mask).bit_count()
                    room += cap if count > cap else count
                if room <= best:
                    return
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
                    group &= apart[q]
                    nb |= rows[q]
            else:
                while group:
                    q = group.bit_length()
                    group &= apart[q]
                    nb |= rows[q]
                    order.append(q)
                ends.append(len(order))
            left &= nb
        # Only the root node, while the stack is the root alone, removes
        # each branch's orbit (module docstring, "Root symmetry").
        orbit = self.orbit if depth == 1 else None
        # Branch from the highest colour down, the last vertex of a class first.
        for i in range(len(ends) - 1, 0, -1):
            for q in reversed(order[ends[i - 1] : ends[i]]):
                if depth + color <= self.best_size:
                    return
                if orbit is not None and not cand >> (q - 1) & 1:
                    continue  # removed with an earlier branch's orbit
                self._expand(depth, cand, met, pend, q)
                del stack[depth:]
                if orbit is None:
                    cand ^= 1 << (q - 1)
                    # Only the pending covers that contain the vertex can have emptied.
                    bits = pend & member[q]
                else:
                    cand &= ~orbit(q - 1)
                    bits = pend
                while bits:
                    b = bits.bit_length()
                    if not covers[b] & cand:
                        return
                    bits ^= 1 << (b - 1)
            color -= 1

    def run(self, roots, initial, stop_at, symmetry):
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
                self.orbit = None
                if symmetry is not None:
                    found = symmetry(i, cand)
                    if found is not None:
                        cand, self.orbit = found
                        if 1 + cand.bit_count() <= self.best_size:
                            continue
                self._expand(0, cand, 0, 0, i + 1)
                self.stack.clear()
        except _TargetReached:
            pass
        except _OutOfBudget:
            truncated = True
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
    symmetry: Symmetry | None = None,
    classes: Iterable[tuple[int, int]] = (),
) -> CliqueResult:
    """Exact maximum clique, optionally stopping once `stop_at` is hit.

    `initial` is an incumbent size: only cliques strictly larger are
    recorded, so a result with size == initial has empty members (no
    improvement found).  `roots` restricts top-level branching,
    `covers` with `requires` restricts the recorded cliques,
    `symmetry` each root's candidates and branches, and `classes`,
    pairs (cover-index bit set, cap), give the count and capacity cuts,
    all as described in the module docstring; None and () mean no
    restriction.  A self-loop (row v holding bit v), a cover mask with a
    bit outside 0..n-1, a `requires` entry that is not one bit set per
    vertex over the covers, a class naming a cover outside
    0..len(covers)-1 or holding overlapping masks, or a root outside
    0..n-1 raises ValueError; n is len(adj).
    """
    deadline = None if time_limit is None else time.monotonic() + time_limit
    search = _Search(adj, covers, requires, classes, node_limit, deadline)
    return search.run(_root_list(adj, roots), initial, stop_at, symmetry)


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
    symmetry: Symmetry | None = None,
    classes: Iterable[tuple[int, int]] = (),
) -> CliqueResult:
    """Split roots across processes; exact results merge deterministically.

    With several workers `symmetry` must pickle.
    """
    root_list = _root_list(adj, roots)
    covers = tuple(covers)
    classes = tuple(classes)
    if workers <= 1 or len(root_list) <= 1:
        return max_clique(
            adj, root_list, initial, stop_at, node_limit, time_limit, covers, requires,
            symmetry, classes,
        )
    chunks = [root_list[i::workers] for i in range(workers)]
    chunks = [c for c in chunks if c]
    # One node budget for the call: the shares (N + i) // len(chunks) sum to N.
    jobs = [
        (
            list(adj), c, initial, stop_at,
            None if node_limit is None else (node_limit + i) // len(chunks),
            time_limit, covers, requires, symmetry, classes,
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
