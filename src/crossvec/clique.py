"""Branch-and-bound maximum clique over bitmask adjacency.

Vertices are 0..n-1 and adjacency rows are Python ints used as bit sets,
which keeps the inner loops on C-level big-int operations.  The solver
is the classic greedy-colouring branch and bound: candidate sets are
colour-sorted, the colour number bounds any clique extension, and
branches that cannot beat the incumbent are cut.

Branching at the top level is on the minimum vertex: root i explores
exactly the cliques whose smallest vertex (in index order) is i.  A
caller may therefore restrict the roots to any set R that is guaranteed
to contain the smallest vertex of at least one maximum clique image
under symmetries of the graph; the search stays exact.

A caller may also pass `covers`, a sequence of vertex bitmasks: then
only cliques that meet every mask are recorded, and the result is the
largest such clique (size 0, or `initial`, when none exists).  The
search keeps the masks the current clique does not meet yet and cuts a
branch as soon as one of them is disjoint from the candidate set, since
no extension could then meet it.  Removing vertex v from the candidates
can only empty masks that contain v, so the branching loop re-checks
just those.

Workers > 1 splits the roots round-robin across processes.  Each worker
finishes its share, so sizes are schedule-independent; the merged
witness is the lexicographically least among the best found.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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


class _CoverSets(dict):
    """Bit set of cover indices -> the tuple of those cover masks."""

    def __init__(self, covers: tuple[int, ...]):
        super().__init__()
        self.covers = covers

    def __missing__(self, bits):
        masks = tuple(m for j, m in enumerate(self.covers) if bits >> j & 1)
        self[bits] = masks
        return masks


class _Search:
    def __init__(self, adj, n, covers, node_limit, deadline):
        self.adj = adj
        self.n = n
        self.node_limit = node_limit
        self.deadline = deadline
        self.nodes = 0
        self.best_size = 0
        self.best: tuple[int, ...] = ()
        self.stack: list[int] = []
        self.stop_at: int | None = None
        covers = tuple(covers)
        self.all_covers = (1 << len(covers)) - 1
        self.cover_sets = _CoverSets(covers)
        # member[v] has bit j set iff vertex v lies in covers[j].
        self.member = [0] * n
        for j, mask in enumerate(covers):
            if mask < 0 or mask >> n:
                raise ValueError(f"cover mask {j} has bits outside vertices 0..{n - 1}")
            bits = bin(mask)[:1:-1]  # bits[v] == "1" iff v is in the mask
            v = bits.find("1")
            while v >= 0:
                self.member[v] |= 1 << j
                v = bits.find("1", v + 1)

    def _tick(self):
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _OutOfBudget

    def _record(self, size):
        self.best_size = size
        self.best = tuple(self.stack)
        if self.stop_at is not None and size >= self.stop_at:
            raise _TargetReached

    def _color_sort(self, cand):
        # Greedy colouring; vertices come back grouped by colour class,
        # so colors[] is nondecreasing and bounds the clique extension.
        adj = self.adj
        order = []
        colors = []
        color = 0
        while cand:
            color += 1
            group = cand
            while group:
                low = group & -group
                v = low.bit_length() - 1
                cand ^= low
                group &= ~adj[v]
                group &= ~low
                order.append(v)
                colors.append(color)
        return order, colors

    def _expand(self, depth, cand, pend):
        # Invariant: every cover in the bit set `pend` (those the stack
        # does not meet yet) meets cand.
        self._tick()
        adj = self.adj
        member = self.member
        cover_sets = self.cover_sets
        order, colors = self._color_sort(cand)
        for idx in range(len(order) - 1, -1, -1):
            if depth + colors[idx] <= self.best_size:
                return
            v = order[idx]
            new_cand = cand & adj[v]
            rest = pend & ~member[v]
            self.stack.append(v)
            if new_cand:
                for m in cover_sets[rest]:
                    if not m & new_cand:
                        break
                else:
                    self._expand(depth + 1, new_cand, rest)
            elif not rest and depth + 1 > self.best_size:
                self._record(depth + 1)
            self.stack.pop()
            cand &= ~(1 << v)
            # Only the pending covers that contain v can have emptied.
            for m in cover_sets[pend & member[v]]:
                if not m & cand:
                    return

    def run(self, roots, initial, stop_at):
        self.best_size = initial
        self.stop_at = stop_at
        truncated = False
        full = (1 << self.n) - 1
        try:
            for i in roots:
                if self.stop_at is not None and self.best_size >= self.stop_at:
                    break
                later = (full >> (i + 1)) << (i + 1)
                cand = self.adj[i] & later
                if 1 + cand.bit_count() <= self.best_size:
                    continue
                pend = self.all_covers & ~self.member[i]
                if not all(m & cand for m in self.cover_sets[pend]):
                    continue
                self.stack.append(i)
                if cand:
                    self._expand(1, cand, pend)
                elif self.best_size < 1:
                    self._record(1)
                self.stack.pop()
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


def max_clique(
    adj: Sequence[int],
    n: int,
    roots: Iterable[int] | None = None,
    initial: int = 0,
    stop_at: int | None = None,
    node_limit: int | None = None,
    time_limit: float | None = None,
    covers: Sequence[int] = (),
) -> CliqueResult:
    """Exact maximum clique, optionally stopping once `stop_at` is hit.

    `initial` is an incumbent size: only cliques strictly larger are
    recorded, so a result with size == initial has empty members (no
    improvement found).  `roots` restricts top-level branching and
    `covers` restricts the recorded cliques to those meeting every
    mask, both as described in the module docstring; None and () mean
    no restriction.  A cover mask with a bit outside 0..n-1 raises
    ValueError.
    """
    if roots is None:
        roots = range(n)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    search = _Search(adj, n, covers, node_limit, deadline)
    return search.run(list(roots), initial, stop_at)


def _worker(args):
    return max_clique(*args)


def max_clique_parallel(
    adj: Sequence[int],
    n: int,
    roots: Iterable[int] | None = None,
    initial: int = 0,
    stop_at: int | None = None,
    node_limit: int | None = None,
    time_limit: float | None = None,
    workers: int = 1,
    covers: Sequence[int] = (),
) -> CliqueResult:
    """Split roots across processes; exact results merge deterministically."""
    root_list = list(range(n) if roots is None else roots)
    args = (initial, stop_at, node_limit, time_limit, tuple(covers))
    if workers <= 1 or len(root_list) <= 1:
        return max_clique(adj, n, root_list, *args)
    chunks = [root_list[i::workers] for i in range(workers)]
    chunks = [c for c in chunks if c]
    jobs = [(list(adj), n, c, *args) for c in chunks]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        results = list(pool.map(_worker, jobs))
    best_size = max(r.size for r in results)
    # Among equal sizes prefer the lexicographically least member tuple.
    members = min(r.members for r in results if r.size == best_size)
    return CliqueResult(
        size=best_size,
        members=members,
        nodes=sum(r.nodes for r in results),
        truncated=any(r.truncated for r in results),
    )
