"""Finite posets, maximum-antichain lattices, and the vector reduction.

The motivating question upstairs is order-theoretic: for a finite poset
P, all maximum antichains ordered by "every element of A lies below some
element of B" form a lattice M(P), and its width is the quantity of
interest.  When P has width w, a minimum chain cover C_1, ..., C_w
exists by Dilworth's theorem, every maximum antichain meets every C_i
in exactly one element, and recording the position of that element
along each chain turns an antichain into a vector in Z^w.  Antichains
incomparable in M(P) map to incomparable vectors, and when P has no
(k+1)+(k+1) subposet no two of the vectors are k-crossing, so the width
of M(P) is bounded by the maximum size of such a vector family.

Width and the chain cover come from bipartite matching (Kuhn's
augmenting paths) plus the Koenig cover, which yields a witness
antichain and a minimum chain cover of matching cardinality in one
pass.  The same machinery runs unchanged on the M(P) order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Family, ParseError, verify

Label = str


def _find_cycle(labels, succ) -> list[str]:
    # DFS for any directed cycle in the raw relation digraph; used only
    # to build a diagnostic once antisymmetry is known to fail.
    n = len(labels)
    state = [0] * n  # 0 unseen, 1 on stack, 2 done
    parent = [-1] * n
    for start in range(n):
        if state[start]:
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for u in it:
                if state[u] == 0:
                    state[u] = 1
                    parent[u] = v
                    stack.append((u, iter(succ[u])))
                    advanced = True
                    break
                if state[u] == 1:
                    cycle = [u]
                    w = v
                    while w != u:
                        cycle.append(w)
                        w = parent[w]
                    cycle.append(u)
                    cycle.reverse()
                    return [labels[i] for i in cycle]
            if not advanced:
                state[v] = 2
                stack.pop()
    return []


class Poset:
    """Finite poset on string labels.

    Built from any set of strict relations (covers or not); the stored
    order is the reflexive-transitive closure.  Rejects cycles with a
    diagnostic naming one.
    """

    __slots__ = ("_labels", "_index", "_leq")

    def __init__(self, labels: Sequence[Label], relations: Iterable[tuple[Label, Label]] = ()):
        labs = tuple(str(x) for x in labels)
        if len(set(labs)) != len(labs):
            raise ValueError("duplicate element labels")
        index = {x: i for i, x in enumerate(labs)}
        n = len(labs)
        succ: list[set[int]] = [set() for _ in range(n)]
        for a, b in relations:
            if a not in index:
                raise ValueError(f"unknown element {a!r}")
            if b not in index:
                raise ValueError(f"unknown element {b!r}")
            if a == b:
                raise ValueError(f"self-relation {a!r} < {a!r}")
            succ[index[a]].add(index[b])
        leq = [1 << i for i in range(n)]
        for i in range(n):
            for j in succ[i]:
                leq[i] |= 1 << j
        # Warshall over bitmask rows.
        for mid in range(n):
            bit = 1 << mid
            row = leq[mid]
            for i in range(n):
                if leq[i] & bit:
                    leq[i] |= row
        for i in range(n):
            for j in range(i + 1, n):
                if leq[i] >> j & 1 and leq[j] >> i & 1:
                    cyc = _find_cycle(labs, succ)
                    path = " < ".join(cyc) if cyc else f"{labs[i]} ... {labs[j]}"
                    raise ValueError(f"relations contain a cycle: {path}")
        self._labels = labs
        self._index = index
        self._leq = leq

    @property
    def labels(self) -> tuple[Label, ...]:
        return self._labels

    @property
    def n(self) -> int:
        return len(self._labels)

    def index(self, a: Label) -> int:
        return self._index[a]

    def leq(self, a: Label, b: Label) -> bool:
        return bool(self._leq[self._index[a]] >> self._index[b] & 1)

    def less(self, a: Label, b: Label) -> bool:
        return a != b and self.leq(a, b)

    def incomparable(self, a: Label, b: Label) -> bool:
        return a != b and not self.leq(a, b) and not self.leq(b, a)

    def leq_masks(self) -> list[int]:
        return list(self._leq)

    def comparable_mask(self, i: int) -> int:
        # All j comparable to i (including i itself).
        m = self._leq[i]
        for j in range(self.n):
            if self._leq[j] >> i & 1:
                m |= 1 << j
        return m

    def covers(self) -> tuple[tuple[Label, Label], ...]:
        """Cover pairs (a, b): a < b with nothing strictly between."""
        out = []
        n = self.n
        for i in range(n):
            for j in range(n):
                if i == j or not self._leq[i] >> j & 1:
                    continue
                between = self._leq[i] & ~(1 << i) & ~(1 << j)
                if not any(
                    between >> m & 1 and self._leq[m] >> j & 1 for m in range(n)
                ):
                    out.append((self._labels[i], self._labels[j]))
        return tuple(out)

    def __repr__(self):
        return f"Poset({self.n} elements, {len(self.covers())} covers)"

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self._labels == other._labels and self._leq == other._leq

    def __hash__(self):
        return hash((self._labels, tuple(self._leq)))


def chain(n: int, prefix: str = "c") -> Poset:
    if n < 1:
        raise ValueError(f"chain length must be >= 1, got {n}")
    labels = [f"{prefix}{i}" for i in range(1, n + 1)]
    return Poset(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def disjoint_chains(*lengths: int) -> Poset:
    """Disjoint union of chains; chains are lettered a, b, c, ...

    disjoint_chains(k, k) is the poset called k+k: two k-element chains
    with no comparabilities between them.
    """
    if not lengths:
        raise ValueError("need at least one chain")
    if len(lengths) > 26:
        raise ValueError("at most 26 chains")
    labels: list[str] = []
    relations: list[tuple[str, str]] = []
    for ci, ln in enumerate(lengths):
        if ln < 1:
            raise ValueError(f"chain length must be >= 1, got {ln}")
        prefix = chr(ord("a") + ci)
        names = [f"{prefix}{i}" for i in range(1, ln + 1)]
        labels.extend(names)
        relations.extend((names[i], names[i + 1]) for i in range(ln - 1))
    return Poset(labels, relations)


def interval_order(intervals: Sequence[tuple[int, int]]) -> Poset:
    """Poset of closed intervals: x < y iff x ends before y starts."""
    labels = []
    for idx, (lo, hi) in enumerate(intervals, start=1):
        if hi < lo:
            raise ValueError(f"interval {idx} is empty: [{lo},{hi}]")
        labels.append(f"i{idx}")
    relations = []
    for i, (_, hi) in enumerate(intervals):
        for j, (lo, _) in enumerate(intervals):
            if i != j and hi < lo:
                relations.append((labels[i], labels[j]))
    return Poset(labels, relations)


def random_interval_order(n: int, seed: int) -> Poset:
    """Random interval order on n elements, deterministic per seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = random.Random(seed)
    intervals = []
    for _ in range(n):
        a = rng.randrange(0, 3 * n)
        b = rng.randrange(0, 3 * n)
        intervals.append((min(a, b), max(a, b)))
    return interval_order(intervals)


# ---------------------------------------------------------------------------
# Width, witness antichain, minimum chain cover.


def _width_from_leq(leq: Sequence[int], n: int):
    """Dilworth via bipartite matching on the strict order.

    Returns (width, antichain indices, chains as index tuples).  The
    matching gives a minimum chain cover of n - |M| chains; the Koenig
    cover of the matching yields n - |M| elements no two of which are
    strictly related, so both certificates have the same cardinality
    and each is optimal.
    """
    adj = [
        [j for j in range(n) if j != i and leq[i] >> j & 1] for i in range(n)
    ]
    match_r = [-1] * n  # right j -> left i
    match_l = [-1] * n  # left i -> right j

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if seen[j]:
                continue
            seen[j] = True
            if match_r[j] < 0 or augment(match_r[j], seen):
                match_r[j] = i
                match_l[i] = j
                return True
        return False

    matched = 0
    for i in range(n):
        if augment(i, [False] * n):
            matched += 1
    width = n - matched

    # Koenig: alternate from unmatched left vertices.
    seen_l = [False] * n
    seen_r = [False] * n
    stack = [i for i in range(n) if match_l[i] < 0]
    for i in stack:
        seen_l[i] = True
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if seen_r[j]:
                continue
            seen_r[j] = True
            i2 = match_r[j]
            if i2 >= 0 and not seen_l[i2]:
                seen_l[i2] = True
                stack.append(i2)
    antichain = tuple(i for i in range(n) if seen_l[i] and not seen_r[i])
    if len(antichain) != width:
        raise RuntimeError(
            f"Koenig antichain has {len(antichain)} elements, width is {width}"
        )
    for a in antichain:
        for b in antichain:
            if a != b and leq[a] >> b & 1:
                raise RuntimeError(
                    f"Koenig antichain holds comparable elements {a} and {b}"
                )

    heads = [i for i in range(n) if match_r[i] < 0]
    chains = []
    for h in heads:
        cur, members = h, [h]
        while match_l[cur] >= 0:
            cur = match_l[cur]
            members.append(cur)
        chains.append(tuple(members))
    if len(chains) != width or sum(len(c) for c in chains) != n:
        raise RuntimeError(
            f"chain cover {chains} is not {width} chains partitioning {n} elements"
        )
    return width, antichain, tuple(chains)


def width(p: Poset):
    """(width, witness antichain, minimum chain cover), all as labels.

    Chains come back as tuples ascending in the order; the cover is the
    one fixed for reduce_to_vectors.  Matching-based covers are not
    unique; any of them validates the same reduction.
    """
    w, anti, chains = _width_from_leq(p.leq_masks(), p.n)
    labels = p.labels
    return (
        w,
        tuple(labels[i] for i in anti),
        tuple(tuple(labels[i] for i in c) for c in chains),
    )


# ---------------------------------------------------------------------------
# The lattice of maximum antichains.


@dataclass
class MaxAntichainLattice:
    """All maximum antichains of a poset with the pointwise-domination
    order: A <= B iff every a in A has some b in B with a <= b.

    `leq` holds one bitmask per member over member indices.  When the
    enumeration hit the cap, `truncated` is set and members are only a
    prefix of the lattice.
    """

    poset: Poset
    members: tuple[tuple[Label, ...], ...]
    leq: list[int]
    truncated: bool

    @property
    def size(self) -> int:
        return len(self.members)

    def leq_members(self, i: int, j: int) -> bool:
        return bool(self.leq[i] >> j & 1)


def max_antichains(p: Poset, cap: int = 1_000_000) -> MaxAntichainLattice:
    """Enumerate every maximum antichain and build the lattice order.

    Enumeration is depth-first over elements in index order with
    comparability masks memoized per element; `cap` stops a blowup,
    flagging the result truncated.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = p.n
    w, _, _ = _width_from_leq(p.leq_masks(), n)
    cmp_masks = [p.comparable_mask(i) for i in range(n)]
    found: list[tuple[int, ...]] = []
    truncated = False

    def extend(start: int, chosen: list[int], blocked: int):
        nonlocal truncated
        if len(chosen) == w:
            if len(found) >= cap:
                truncated = True
                return
            found.append(tuple(chosen))
            return
        for i in range(start, n):
            if truncated:
                return
            if blocked >> i & 1:
                continue
            # Not enough incomparable elements left to finish.
            probe = ~(blocked | cmp_masks[i]) & (~0 << (i + 1)) & ((1 << n) - 1)
            free_above = probe.bit_count()
            if len(chosen) + 1 + free_above < w:
                continue
            chosen.append(i)
            extend(i + 1, chosen, blocked | cmp_masks[i] | (1 << i))
            chosen.pop()

    extend(0, [], 0)
    labels = p.labels
    members = tuple(tuple(labels[i] for i in a) for a in found)
    member_masks = [sum(1 << i for i in a) for a in found]
    leq_rows = p.leq_masks()
    order = []
    for ia, a in enumerate(found):
        row = 0
        for ib in range(len(found)):
            # A <= B iff every a has some b above it: the upset of each
            # chosen element must meet B.
            if all(leq_rows[i] & member_masks[ib] for i in a):
                row |= 1 << ib
        order.append(row)
    return MaxAntichainLattice(p, members, order, truncated)


def lattice_width(lat: MaxAntichainLattice) -> int:
    """Width of the maximum-antichain order; rejects truncated input."""
    if lat.truncated:
        raise ValueError("lattice enumeration was truncated; width unreliable")
    w, _, _ = _width_from_leq(lat.leq, lat.size)
    return w


def lattice_width_witness(lat: MaxAntichainLattice):
    """(width, pairwise-incomparable members realizing it)."""
    if lat.truncated:
        raise ValueError("lattice enumeration was truncated; width unreliable")
    w, anti, _ = _width_from_leq(lat.leq, lat.size)
    return w, tuple(lat.members[i] for i in anti)


def is_lattice(lat: MaxAntichainLattice) -> bool:
    """Check meets and joins exist for every pair of enumerated members."""
    if lat.truncated:
        raise ValueError("lattice enumeration was truncated")
    m = lat.size
    leq = lat.leq
    for i in range(m):
        for j in range(i, m):
            ups = [x for x in range(m) if leq[i] >> x & 1 and leq[j] >> x & 1]
            if not any(all(leq[u] >> v & 1 for v in ups) for u in ups):
                return False
            downs = [
                x for x in range(m) if leq[x] >> i & 1 and leq[x] >> j & 1
            ]
            if not any(all(leq[v] >> d & 1 for v in downs) for d in downs):
                return False
    return True


# ---------------------------------------------------------------------------
# k+k detection and the vector reduction.


def contains_k_plus_k(p: Poset, k: int):
    """Does p contain two disjoint k-chains with no comparabilities between
    them?  Returns (flag, witness pair of chains or None)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = p.n
    leq = p.leq_masks()
    labels = p.labels
    strict = [leq[i] & ~(1 << i) for i in range(n)]
    incmp = [~p.comparable_mask(i) & ((1 << n) - 1) for i in range(n)]

    chains: list[tuple[tuple[int, ...], int]] = []

    def grow(members: list[int], last: int):
        if len(members) == k:
            free = (1 << n) - 1
            for i in members:
                free &= incmp[i]
            chains.append((tuple(members), free))
            return
        m = strict[last]
        for j in range(n):
            if m >> j & 1:
                members.append(j)
                grow(members, j)
                members.pop()

    for i in range(n):
        grow([i], i)
    for idx, (c1, free) in enumerate(chains):
        if free.bit_count() < k:
            continue
        for c2, _ in chains:
            if all(free >> j & 1 for j in c2):
                return True, (
                    tuple(labels[i] for i in c1),
                    tuple(labels[j] for j in c2),
                )
    return False, None


def reduce_to_vectors(p: Poset, k: int, antichain_family: Sequence[Iterable[Label]]) -> Family:
    """Map pairwise-incomparable maximum antichains to a vector family.

    Fixes the chain cover returned by width(); the vector of an
    antichain records, per cover chain, the 1-based position of its
    unique element on that chain.  For antichains pairwise incomparable
    in the maximum-antichain order, the vectors are pairwise
    incomparable, and when p has no (k+1)+(k+1) subposet no pair is
    k-crossing; the output is checked against k and a failure (which
    can only come from a violated precondition) raises ValueError.

    Different minimum chain covers give different, equally valid
    families; only the cover fixed here is used.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    w, _, chains = width(p)
    position = {}
    for ci, c in enumerate(chains):
        for pos, lab in enumerate(c, start=1):
            position[lab] = (ci, pos)

    members = [tuple(a) for a in antichain_family]
    for a in members:
        if len(set(a)) != len(a):
            raise ValueError(f"antichain {a} has repeated elements")
        if len(a) != w:
            raise ValueError(
                f"antichain {a} has size {len(a)}, not the width {w}; "
                "only maximum antichains reduce"
            )
        for x in a:
            if x not in position:
                raise ValueError(f"unknown element {x!r}")
        for i, x in enumerate(a):
            for y in a[i + 1 :]:
                if not p.incomparable(x, y):
                    raise ValueError(f"{x!r} and {y!r} are comparable; not an antichain")

    def dominated(a, b) -> bool:
        return all(any(p.leq(x, y) for y in b) for x in a)

    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if dominated(a, b) or dominated(b, a):
                raise ValueError(
                    f"antichains {a} and {b} are comparable in the "
                    "maximum-antichain order; the reduction needs pairwise "
                    "incomparable members"
                )

    vectors = []
    for a in members:
        coords = [0] * w
        seen_chain = [False] * w
        for x in a:
            ci, pos = position[x]
            if seen_chain[ci]:
                raise RuntimeError(
                    f"antichain {a} meets chain {ci + 1} twice; cover invalid"
                )
            seen_chain[ci] = True
            coords[ci] = pos
        if not all(seen_chain):
            raise RuntimeError(
                f"antichain {a} misses a cover chain; cover invalid"
            )
        vectors.append(tuple(coords))
    fam = Family(w, vectors)
    if len(members) > 0 and not verify(fam, k).ok:
        raise ValueError(
            f"reduced family fails verification for k={k}; the poset must "
            f"contain a {k + 1}+{k + 1} subposet (precondition violated)"
        )
    return fam


# ---------------------------------------------------------------------------
# Text format.


def poset_to_text(p: Poset) -> str:
    lines = ["elements " + " ".join(p.labels)]
    lines.extend(f"{a} < {b}" for a, b in p.covers())
    return "\n".join(lines) + "\n"


def poset_from_text(text: str) -> Poset:
    """Parse the poset format: an `elements` line then `a < b` lines.

    Blank lines and '#' comments are skipped.  Relation lines may list
    any strict relations, not only covers.  Cycles are rejected with a
    diagnostic naming one cycle.
    """
    labels: list[str] | None = None
    relations: list[tuple[str, str]] = []
    known: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if labels is None:
            if parts[0] != "elements" or len(parts) < 2:
                raise ParseError("expected 'elements <label> ...'", lineno)
            labels = parts[1:]
            if len(set(labels)) != len(labels):
                dup = next(x for x in labels if labels.count(x) > 1)
                raise ParseError(f"duplicate element {dup!r}", lineno)
            known = set(labels)
            continue
        if len(parts) != 3 or parts[1] != "<":
            raise ParseError("expected '<a> < <b>'", lineno)
        a, _, b = parts
        if a not in known:
            raise ParseError(f"unknown element {a!r}", lineno)
        if b not in known:
            raise ParseError(f"unknown element {b!r}", lineno)
        if a == b:
            raise ParseError(f"self-relation {a!r} < {a!r}", lineno)
        relations.append((a, b))
    if labels is None:
        raise ParseError("empty input: no 'elements' line")
    try:
        return Poset(labels, relations)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def load_poset(path) -> Poset:
    with open(path, "r", encoding="utf-8") as fh:
        return poset_from_text(fh.read())


def save_poset(p: Poset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(poset_to_text(p))
