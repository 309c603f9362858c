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

M(P) itself comes from that cover.  `max_antichains` picks one element
per cover chain, chain after chain, each incomparable to the picks so
far; every maximum antichain arises exactly once, and with it its
position vector.  On maximum antichains the vector map is an order
embedding (`reduce_to_vectors`), so A <= B exactly when B's vector lies
nowhere below A's, and the order is read from the relation tables of
`core.verify` over the members' vectors instead of from pairs of
antichains.

The reduction's precondition, no (k+1)+(k+1) subposet, is tested by
`contains_k_plus_k` without listing every pair of k-chains.  It walks
the prefixes of a first chain in lexicographic order.  The second chain
must lie in the prefix's free set, the elements incomparable to all of
the prefix, and extending the prefix only shrinks that set.  So once the
free set holds no k-chain, no extension of the prefix can be a first
chain, and the walk drops them all.  Whether a set holds a k-chain takes
k - 1 rounds of keeping the elements with a strict successor still in
the set.  The first full chain that survives, with the first k-chain
inside its free set, is the pair that testing every pair of k-chains in
order returns.

A Poset keeps its reflexive-transitive closure in both directions, as
bitmask rows: the up-set and the down-set of every element.  The given
relations are ORed into one row per element and closed by Warshall's
algorithm, and the down-sets are transposed once from the up-sets.
Comparability is the union of the two rows, and the covers of a are its
strict up-set minus everything strictly above some member of it.  An element whose up-set and down-set
share another element lies on a cycle.  Every member of that shared set
reaches the element and is reached from it, so each has a given
successor inside the set; following the rows of given relations within
the set until an element repeats names one cycle of given relations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Family, ParseError, _bits, _read_text, _relation_table, _write_text, verify

Label = str


class Poset:
    """Finite poset on string labels.

    Built from any set of strict relations (covers or not); the stored
    order is the reflexive-transitive closure.  Rejects cycles with a
    diagnostic naming one.
    """

    __slots__ = ("_labels", "_index", "_leq", "_geq")

    def __init__(self, labels: Sequence[Label], relations: Iterable[tuple[Label, Label]] = ()):
        labs = tuple(str(x) for x in labels)
        if len(set(labs)) != len(labs):
            raise ValueError("duplicate element labels")
        index = {x: i for i, x in enumerate(labs)}
        n = len(labs)
        given = [0] * n  # given[i]: the j with a relation i < j given
        for a, b in relations:
            if a not in index:
                raise ValueError(f"unknown element {a!r}")
            if b not in index:
                raise ValueError(f"unknown element {b!r}")
            if a == b:
                raise ValueError(f"self-relation {a!r} < {a!r}")
            given[index[a]] |= 1 << index[b]
        leq = [row | 1 << i for i, row in enumerate(given)]
        # Warshall over bitmask rows.
        for mid in range(n):
            bit = 1 << mid
            row = leq[mid]
            for i in range(n):
                if leq[i] & bit:
                    leq[i] |= row
        # Transpose inline rather than through _bits: every Poset built
        # pays for it, and a generator per row costs about half again.
        geq = [0] * n
        for i, row in enumerate(leq):
            bit = 1 << i
            while row:
                low = row & -row
                geq[low.bit_length() - 1] |= bit
                row ^= low
        for i in range(n):
            scc = leq[i] & geq[i]
            if scc != 1 << i:
                # Every element of scc has a given successor inside it.
                seen: dict[int, int] = {}
                v = i
                while v not in seen:
                    seen[v] = len(seen)
                    nxt = given[v] & scc
                    v = (nxt & -nxt).bit_length() - 1
                cycle = list(seen)[seen[v]:] + [v]
                path = " < ".join(labs[j] for j in cycle)
                raise ValueError(f"relations contain a cycle: {path}")
        self._labels = labs
        self._index = index
        self._leq = leq
        self._geq = geq

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
        return self._leq[i] | self._geq[i]

    def covers(self) -> tuple[tuple[Label, Label], ...]:
        """Cover pairs (a, b): a < b with nothing strictly between."""
        up = [row & ~(1 << i) for i, row in enumerate(self._leq)]
        labels = self._labels
        out = []
        for i, row in enumerate(up):
            above = 0
            for j in _bits(row):
                above |= up[j]
            out.extend((labels[i], labels[j]) for j in _bits(row & ~above))
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
    up = [leq[i] & ~(1 << i) for i in range(n)]
    match_r = [-1] * n  # right j -> left i
    match_l = [-1] * n  # left i -> right j

    def augment(root: int) -> bool:
        # Kuhn's depth-first search for an augmenting path from root, on
        # an explicit stack so that long paths cannot overflow Python's
        # recursion limit.  stack[d] is the left vertex at depth d and
        # path[d] the right vertex that depth d is trying.  A left vertex
        # tries its right neighbours in ascending order and marks each in
        # `seen` as it tries it, so the neighbours below the last one
        # tried are all seen and the next to try is the lowest unseen
        # one: the matching, and with it the antichain and the chains
        # returned, is the one that walking each neighbour list in order
        # finds.
        stack = [root]
        path: list[int] = []
        seen = 0
        while stack:
            free = up[stack[-1]] & ~seen
            if not free:
                stack.pop()
                if path:
                    path.pop()
                continue
            low = free & -free
            seen |= low
            j = low.bit_length() - 1
            path.append(j)
            if match_r[j] < 0:
                for left, right in zip(stack, path):
                    match_r[right] = left
                    match_l[left] = right
                return True
            stack.append(match_r[j])
        return False

    matched = 0
    for i in range(n):
        if augment(i):
            matched += 1
    width = n - matched

    # Koenig: alternate from unmatched left vertices.
    stack = [i for i in range(n) if match_l[i] < 0]
    seen_l = sum(1 << i for i in stack)
    seen_r = 0
    while stack:
        i = stack.pop()
        new = up[i] & ~seen_r
        seen_r |= new
        for j in _bits(new):
            i2 = match_r[j]
            if i2 >= 0 and not seen_l >> i2 & 1:
                seen_l |= 1 << i2
                stack.append(i2)
    picked = seen_l & ~seen_r
    antichain = tuple(_bits(picked))
    if len(antichain) != width:
        raise RuntimeError(
            f"Koenig antichain has {len(antichain)} elements, width is {width}"
        )
    for a in antichain:
        if up[a] & picked:
            b = next(_bits(up[a] & picked))
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
    enumeration hit the cap, `truncated` is set and members are only
    `cap` of the lattice's (`max_antichains`).
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

    A maximum antichain meets every chain of a minimum chain cover in
    exactly one element, so the enumeration picks one element per cover
    chain, chain after chain, among those incomparable to the picks so
    far.  Members come back in lexicographic order of their element
    indices.  `leq` reads each member's position vector along the cover
    (the order embedding of `reduce_to_vectors`): A <= B iff B's vector
    lies nowhere below A's.  `cap` stops a blowup: when the poset has
    more than `cap` maximum antichains the result holds `cap` of them,
    in the same order but not necessarily the first `cap`, and is
    flagged truncated.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = p.n
    w, _, chains = _width_from_leq(p.leq_masks(), n)
    cmp_masks = [p.comparable_mask(i) for i in range(n)]
    # (element indices ascending, position vector) per member.
    found: list[tuple[list[int], tuple[int, ...]]] = []
    truncated = False
    # On an explicit stack, so that wide antichains cannot overflow
    # Python's recursion limit: at depth d, pos[d] is the 1-based
    # position of the pick on chain d (0 before the first), picks[d] its
    # element, and blocked[d] the elements comparable to picks[:d].
    pos, picks, blocked = [0] * w, [0] * w, [0] * (w + 1)
    d = 0
    while d >= 0:
        if d == w:
            if len(found) == cap:
                truncated = True
                break
            found.append((sorted(picks), tuple(pos)))
            d -= 1
            continue
        c, t = chains[d], pos[d]
        while t < len(c) and blocked[d] >> c[t] & 1:
            t += 1
        if t == len(c):
            pos[d] = 0
            d -= 1
            continue
        pos[d], picks[d] = t + 1, c[t]
        blocked[d + 1] = blocked[d] | cmp_masks[c[t]]
        d += 1
    found.sort()

    labels = p.labels
    members = tuple(tuple(labels[i] for i in a) for a, _ in found)
    everyone = (1 << len(found)) - 1
    tables = [_relation_table(column, 1) for column in zip(*(v for _, v in found))]
    order = []
    for _, v in found:
        below = 0  # the members whose vector lies below v somewhere
        for table, x in zip(tables, v):
            below |= table[x][0]
        order.append(everyone & ~below)
    return MaxAntichainLattice(p, members, order, truncated)


def lattice_width(lat: MaxAntichainLattice) -> int:
    """Width of the maximum-antichain order; rejects truncated input."""
    return lattice_width_witness(lat)[0]


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


def _chain_starts(up: Sequence[int], s: int, k: int) -> list[int]:
    """starts[t]: the elements of s that start a (t + 1)-chain inside s.

    Each round keeps the elements with a strict successor (`up`) still in
    the set.  Stops at k levels or before the first empty one, so s holds
    a k-chain exactly when k levels come back.
    """
    starts = []
    while s:
        starts.append(s)
        if len(starts) == k:
            break
        # Inline rather than through _bits, as in the Poset transpose.
        kept, rest = 0, s
        while rest:
            low = rest & -rest
            if up[low.bit_length() - 1] & s:
                kept |= low
            rest ^= low
        s = kept
    return starts


def contains_k_plus_k(p: Poset, k: int):
    """Does p contain two disjoint k-chains with no comparabilities between
    them?  Returns (flag, witness pair of chains or None).

    The first chain is sought in lexicographic order of its element
    indices: start ascending, each next element ascending among the
    strict successors of the last.  A prefix leaves a free set, the
    elements incomparable to all of it, and the second chain must lie
    there.  Extending a prefix only shrinks its free set, so a prefix
    whose free set holds no k-chain is dropped with all its extensions
    (`_chain_starts` decides that in at most k - 1 rounds).  So is an
    element that starts too short a chain of p to finish the prefix.
    The first full chain that survives is the witness's first chain.
    Its second is the lexicographically first k-chain inside the free
    set, taken greedily from the levels of `_chain_starts`.  That is the
    first pair in lexicographic order of (first chain, second chain),
    which testing every pair of k-chains in that order returns.  The
    walk keeps its prefixes on an explicit stack, so k may exceed the
    recursion limit.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = p.n
    labels = p.labels
    up = [row & ~(1 << i) for i, row in enumerate(p.leq_masks())]
    everyone = (1 << n) - 1
    incmp = [everyone & ~p.comparable_mask(i) for i in range(n)]
    # reach[t]: the elements that start a (t + 1)-chain of p.  Only they
    # can stand k - 1 - t places before the end of a first chain.
    reach = _chain_starts(up, everyone, k)
    if len(reach) < k:
        return False, None

    # frees[d] is the free set of the prefix path[:d]; options[d] the
    # elements not yet tried as path[d].
    path: list[int] = []
    frees = [everyone]
    options = [reach[-1]]
    while options:
        rest = options[-1]
        if not rest:
            options.pop()
            frees.pop()
            if path:
                path.pop()
            continue
        low = rest & -rest
        options[-1] = rest ^ low
        j = low.bit_length() - 1
        free = frees[-1] & incmp[j]
        # An unchanged free set keeps the k-chain its prefix was kept for.
        if free != frees[-1] and len(_chain_starts(up, free, k)) < k:
            continue
        if len(path) + 1 < k:
            path.append(j)
            frees.append(free)
            options.append(up[j] & reach[k - 1 - len(path)])
            continue
        starts = _chain_starts(up, free, k)
        second, allowed = [], everyone
        for level in reversed(starts):
            pick = level & allowed
            x = (pick & -pick).bit_length() - 1
            second.append(x)
            allowed = up[x]
        return True, (
            tuple(labels[i] for i in path + [j]),
            tuple(labels[i] for i in second),
        )
    return False, None


def reduce_to_vectors(p: Poset, k: int, antichain_family: Sequence[Iterable[Label]]) -> Family:
    """Map pairwise-incomparable maximum antichains to a vector family.

    Fixes the chain cover returned by width(); the vector of an
    antichain records, per cover chain, the 1-based position of its
    unique element on that chain.  On maximum antichains this map is an
    order embedding: A <= B in the maximum-antichain order exactly when
    v(A) <= v(B) coordinatewise.  One way, v(A) <= v(B) puts each a_i
    below b_i on cover chain i.  The other way, if every a lies below
    some b but b_i < a_i on some chain i, then b_i < a_i <= b for some
    b in B, two comparable members of the antichain B.  So equal inputs
    give equal vectors, and otherwise the antichain flag of `verify` on
    the output fails exactly when two inputs are comparable: it is the
    only pairwise check needed.  When p has no (k+1)+(k+1) subposet no pair is k-crossing; a
    crossing pair can only come from a violated precondition.  Both
    failures raise ValueError.

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

    def comparable(a, b) -> ValueError:
        return ValueError(
            f"antichains {a} and {b} are comparable in the "
            "maximum-antichain order; the reduction needs pairwise "
            "incomparable members"
        )

    antichain_of: dict[tuple[int, ...], tuple[Label, ...]] = {}
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
        v = tuple(coords)
        if v in antichain_of:
            raise comparable(antichain_of[v], a)
        antichain_of[v] = a
    fam = Family(w, antichain_of)
    # No cap short of all pairs: a comparable pair must reach the list.
    report = verify(fam, k, violation_cap=len(members) ** 2)
    if not report.is_antichain:
        u, v = next((u, v) for u, v, kind in report.violations if kind == "comparable")
        raise comparable(antichain_of[u], antichain_of[v])
    if not report.is_cross_free:
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
    """Read a poset from a text file, or from stdin when path is "-"."""
    return poset_from_text(_read_text(path))


def save_poset(p: Poset, path) -> None:
    """Write a poset to a text file, or to stdout when path is "-"."""
    _write_text(poset_to_text(p), path)
