"""Shared oracles and generators for the test suite.

Everything here is deliberately naive: straight loops over pairs and
subsets, no bit packing, no pruning beyond the obvious size cut.  The
point is to hold a second, independent opinion on what the library
computes.  The `reference_*` functions are the earlier pairwise forms
of bit-set kernels in `crossvec.posets` and `crossvec.search`, kept so
that tests can demand identical output from the rewrites.
"""

import itertools

from crossvec import Family, Poset, VerificationReport
from crossvec.core import threshold_seq


def pair_relation(a, b, seq):
    """Classify one pair: 'equal', 'comparable', 'crossing' or 'free'."""
    if tuple(a) == tuple(b):
        return "equal"
    if all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b)):
        return "comparable"
    pos = any(x - y >= k for x, y, k in zip(a, b, seq))
    neg = any(y - x >= k for x, y, k in zip(a, b, seq))
    if pos and neg:
        return "crossing"
    return "free"


def relation_table(vectors, seq):
    """Relation kind for every index pair i < j of the given sequence."""
    out = {}
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            out[(i, j)] = pair_relation(vectors[i], vectors[j], seq)
    return out


def oracle_report(family, seq, cap=100):
    """What `verify` must return, from pair_relation over every pair i < j.

    Violations are listed in the family's canonical (i, j) order and cut
    at `cap`; the flags and the truncation mark still cover every pair.
    """
    vs = family.vectors
    bad = [
        (vs[i], vs[j], kind)
        for (i, j), kind in relation_table(vs, seq).items()
        if kind in ("comparable", "crossing")
    ]
    kinds = {kind for _, _, kind in bad}
    ranks = frozenset(sum(v) for v in vs)
    return VerificationReport(
        size=len(vs),
        is_antichain="comparable" not in kinds,
        is_cross_free="crossing" not in kinds,
        is_ranked=len(ranks) <= 1,
        rank_values=ranks,
        violations=tuple(bad[:cap]),
        violations_truncated=len(bad) > cap,
    )


def box_points(limits):
    return [tuple(p) for p in itertools.product(*(range(b + 1) for b in limits))]


def brute_max_family(seq, limits):
    """Largest verifying subset of the box, by plain backtracking.

    Returns (size, vectors).  Only meant for boxes of a few dozen points.
    """
    pts = box_points(limits)
    n = len(pts)
    compat = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ok = pair_relation(pts[i], pts[j], seq) == "free"
            compat[i][j] = compat[j][i] = ok
    best = []

    def grow(start, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
        for i in range(start, n):
            # even taking every remaining point cannot beat the incumbent
            if len(chosen) + (n - i) <= len(best):
                break
            if all(compat[i][j] for j in chosen):
                chosen.append(i)
                grow(i + 1, chosen)
                chosen.pop()

    grow(0, [])
    return len(best), [pts[i] for i in best]


def brute_max_antichains(p):
    """All maximum antichains of a poset by subset enumeration (n <= 15)."""
    n = p.n
    labs = p.labels
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and p.leq(labs[i], labs[j])
    ]
    best = 0
    found = []
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        if any(i in members and j in members for i, j in pairs):
            continue
        if len(members) > best:
            best = len(members)
            found = [members]
        elif len(members) == best:
            found.append(members)
    return best, [frozenset(labs[i] for i in m) for m in found]


def random_verified_family(rng, ks, w, n, span=None):
    """Sample vectors, keep only those free against everything kept so far.

    `ks` is an int (a uniform threshold) or one threshold per coordinate.
    May return fewer than n vectors; that is fine for property loops.
    """
    seq = threshold_seq(ks, w)
    if span is None:
        span = 3 * max(seq)
    vs = []
    for _ in range(6 * n):
        v = tuple(rng.randrange(-span, span + 1) for _ in range(w))
        if all(pair_relation(v, u, seq) == "free" for u in vs):
            vs.append(v)
        if len(vs) == n:
            break
    return Family(w, vs)


def random_ranked_family(rng, k, w, n):
    """Like random_verified_family but every vector has rank 0."""
    seq = (k,) * w
    vs = []
    for _ in range(8 * n):
        head = [rng.randrange(-k, k + 1) for _ in range(w - 1)]
        v = tuple(head) + (-sum(head),)
        if all(pair_relation(v, u, seq) == "free" for u in vs):
            vs.append(v)
        if len(vs) == n:
            break
    return Family(w, vs)


def random_poset(rng, n, p=0.3):
    """Random order on e1..en: edge i -> j (i < j) with probability p."""
    labels = [f"e{i}" for i in range(1, n + 1)]
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                relations.append((labels[i], labels[j]))
    return Poset(labels, relations)


def reference_width_from_leq(leq, n):
    """Dilworth via bipartite matching on the strict order, with neighbour
    lists: the list-based form of `posets._width_from_leq`, kept as its
    reference.

    Returns (width, antichain indices, chains as index tuples).  The
    matching gives a minimum chain cover of n - |M| chains; the Koenig
    cover of the matching yields n - |M| elements no two of which are
    strictly related, so both certificates have the same cardinality
    and each is optimal.
    """
    adj = [[j for j in range(n) if j != i and leq[i] >> j & 1] for i in range(n)]
    match_r = [-1] * n  # right j -> left i
    match_l = [-1] * n  # left i -> right j

    def augment(root: int, seen: list[bool]) -> bool:
        # Kuhn's depth-first search for an augmenting path from root, on
        # an explicit stack so that long paths cannot overflow Python's
        # recursion limit.  stack[d] holds the left vertex at depth d and
        # its right neighbours not yet tried, in adjacency order, which
        # fixes the matching and so the antichain and chains returned;
        # path[d] is the right vertex that depth d is trying.
        stack = [(root, iter(adj[root]))]
        path: list[int] = []
        while stack:
            for j in stack[-1][1]:
                if not seen[j]:
                    seen[j] = True
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            path.append(j)
            if match_r[j] < 0:
                for (left, _), right in zip(stack, path):
                    match_r[right] = left
                    match_l[left] = right
                return True
            stack.append((match_r[j], iter(adj[match_r[j]])))
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


def reference_contains_k_plus_k(p, k):
    """`posets.contains_k_plus_k` by listing every k-chain and testing
    every pair of them, first chain in the outer loop; its reference."""
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


def reference_digraph_edges(vectors, seq, c):
    """Short and long edges of the cross digraph on 0-based coordinate c,
    testing every ordered pair; the pairwise form of
    `search.build_cross_digraph`, kept as its reference."""
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
            if b[c] - a[c] == seq[c] - 1 and any(
                a[i] - b[i] >= seq[i] for i in range(len(a)) if i != c
            ):
                long.add((a, b))
    return short, long


def reference_successors(vectors, edges):
    """Every vector mapped to the set of its edge targets."""
    succ = {v: set() for v in vectors}
    for a, b in edges:
        succ[a].add(b)
    return succ


def reference_reaches_level0(vectors, succ, c):
    """The vectors with a path to level 0 on c, by repeated passes."""
    reached = {v for v in vectors if v[c] == 0}
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


def reference_compress(family, ks, coord):
    """`search.compress` rebuilding every edge pairwise at each step; its
    reference.  Takes a family that `compress` accepts."""
    seq = threshold_seq(ks, family.width)
    c = coord - 1
    if len(family) == 0:
        return family
    vectors = list(family.vectors)
    while True:
        short, long = reference_digraph_edges(vectors, seq, c)
        succ = reference_successors(vectors, short | long)
        reached = reference_reaches_level0(vectors, succ, c)
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


def suite_families():
    """A broad corpus of (name, family, k) used by the signature sweeps."""
    import random

    from crossvec import (
        cyclic_family,
        cyclic_fixup_vector,
        generalized_product_family,
        inductive_lift,
        lexicographic_family,
        non_ranked_example,
        normalize,
        product_family,
        weak_compression_family,
    )

    for k in range(2, 5):
        for w in range(2, 5):
            yield f"product k={k} w={w}", product_family(k, w), k
            yield f"lex k={k} w={w}", lexicographic_family(k, w, (w,) * w), k
    for k in range(2, 6):
        yield f"cyclic k={k} rank {2 * k - 1}", cyclic_family(k, 2 * k - 1), k
        yield f"cyclic k={k} rank {2 * k - 2}", cyclic_family(k, 2 * k - 2), k
    fam = cyclic_family(4, 7)
    yield "cyclic k=4 fixed up", Family(3, fam.vectors + (cyclic_fixup_vector(4),)), 4
    yield "non-ranked example", non_ranked_example(), 2
    for k in (3, 4):
        yield f"weak compression k={k}", weak_compression_family(k), k
    # verifies at the uniform max threshold as well, so k=3 keeps the
    # (family, k) contract: every yielded family verifies at uniform k
    yield "generalized product (2,2,3)", generalized_product_family((2, 2, 3)), 3
    for k in (2, 3):
        base = normalize(product_family(k, 2), k)
        c = max(x for v in base for x in v) + 1
        yield f"lift k={k} w=3", inductive_lift(base, k, c), k
    rng = random.Random(20240817)
    for i in range(12):
        k = rng.randrange(2, 5)
        w = rng.randrange(2, 5)
        f = random_verified_family(rng, k, w, rng.randrange(3, 9))
        if len(f) >= 2:
            yield f"random #{i} k={k} w={w}", f, k
