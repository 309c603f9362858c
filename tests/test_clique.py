"""The bitmask branch-and-bound clique solver against subset enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossvec.clique import _Search, max_clique, max_clique_parallel

from helpers import box_points, pair_relation


def adj_from_edges(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def brute_max_clique(n, adj):
    best = 0
    witness = ()
    for size in range(n, 0, -1):
        if size <= best:
            break
        for combo in itertools.combinations(range(n), size):
            if all(adj[a] >> b & 1 for a, b in itertools.combinations(combo, 2)):
                return size, combo
    return best, witness


def brute_max_covering_clique(n, adj, covers, roots=None):
    """Size of the largest clique that meets every cover mask.

    With `roots`, only cliques whose largest vertex is a root count.
    """
    # is_clique[s] for every vertex subset s, built from s minus its
    # highest vertex.
    is_clique = [True] * (1 << n)
    best = 0
    for s in range(1, 1 << n):
        v = s.bit_length() - 1
        rest = s ^ 1 << v
        is_clique[s] = is_clique[rest] and adj[v] & rest == rest
        if is_clique[s] and all(s & m for m in covers):
            if roots is not None and v not in roots:
                continue
            best = max(best, s.bit_count())
    return best


def brute_max_requiring_clique(n, adj, covers, requires, roots=None):
    """Size of the largest clique that meets every cover a member requires.

    A subset DP: each subset's clique flag, required covers and met
    covers come from the subset minus its highest vertex.  With `roots`,
    only cliques whose largest vertex is a root count.
    """
    member = [sum(1 << j for j, m in enumerate(covers) if m >> v & 1) for v in range(n)]
    is_clique = [True] * (1 << n)
    req = [0] * (1 << n)
    met = [0] * (1 << n)
    best = 0
    for s in range(1, 1 << n):
        v = s.bit_length() - 1
        rest = s ^ 1 << v
        is_clique[s] = is_clique[rest] and adj[v] & rest == rest
        req[s] = req[rest] | requires[v]
        met[s] = met[rest] | member[v]
        if is_clique[s] and not req[s] & ~met[s]:
            if roots is not None and v not in roots:
                continue
            best = max(best, s.bit_count())
    return best


def qualifies(adj, covers, requires, members):
    """Whether members form a clique that meets every cover one of them requires."""
    req = met = 0
    for v in members:
        req |= requires[v]
        met |= sum(1 << j for j, m in enumerate(covers) if m >> v & 1)
    clique = all(adj[a] >> b & 1 for a, b in itertools.combinations(members, 2))
    return clique and not req & ~met


def random_levels(rng, n, max_top=3):
    """Covers, prefix-shaped requires and classes from random vertex levels.

    Each of a few coordinates gives every vertex a level up to `max_top`;
    cover (i, l) holds the vertices at level l on coordinate i (it may be
    empty), and a vertex requires the levels 0..its own on every
    coordinate.  Each coordinate's covers form a class with cap n, which
    the capacity cut never reaches, so only the count cut reads it.
    """
    covers, requires, classes = [], [0] * n, []
    for _ in range(rng.randrange(1, 4)):
        top = rng.randrange(0, max_top + 1)
        level = [rng.randrange(top + 1) for _ in range(n)]
        for v in range(n):
            requires[v] |= ((2 << level[v]) - 1) << len(covers)
        classes.append((((2 << top) - 1) << len(covers), n))
        covers += [sum(1 << v for v in range(n) if level[v] == l) for l in range(top + 1)]
    return covers, requires, classes


def clique_number(adj, bits):
    """The largest clique inside the vertex set `bits`: every clique, each
    grown from its largest vertex, skipping only those that cannot beat
    the best found by size alone."""
    best = 0

    def grow(size, cand):
        nonlocal best
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = cand.bit_length() - 1
            cand ^= 1 << v
            grow(size + 1, cand & adj[v])
        best = max(best, size)

    grow(0, bits)
    return best


def box_instance(seq, limits):
    """The compatibility graph of a box's points under thresholds seq,
    with the level covers and prefix requires of a box search, and each
    coordinate's levels as one class capped by the largest clique inside
    one of them."""
    points = box_points(limits)
    n = len(points)
    edges = [
        (a, b) for a, b in itertools.combinations(range(n), 2)
        if pair_relation(points[a], points[b], seq) == "free"
    ]
    adj = adj_from_edges(n, edges)
    covers, requires, classes = [], [0] * n, []
    for c, top in enumerate(limits):
        first = len(covers)
        covers += [sum(1 << v for v in range(n) if points[v][c] == l) for l in range(top + 1)]
        for v in range(n):
            requires[v] |= ((2 << points[v][c]) - 1) << first
        cap = max(clique_number(adj, mask) for mask in covers[first:])
        classes.append((((2 << top) - 1) << first, cap))
    return n, adj, covers, requires, classes


def capped(rng, adj, covers, classes):
    """The classes split at random into smaller classes, each capped by
    the largest clique number of its masks, or one more: caps that hold
    on any graph."""
    out = []
    for bits, _ in classes:
        parts = {}
        for j in range(len(covers)):
            if bits >> j & 1:
                key = rng.randrange(2)
                parts[key] = parts.get(key, 0) | 1 << j
        for part in parts.values():
            omega = max(clique_number(adj, covers[j]) for j in range(len(covers)) if part >> j & 1)
            out.append((part, omega + rng.choice((0, 0, 1))))
    return out


def random_instance(rng, max_n=14):
    n = rng.randrange(1, max_n + 1)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    covers = []
    for _ in range(rng.randrange(0, 4)):
        density = rng.choice((0.1, 0.3, 0.6))
        covers.append(sum(1 << v for v in range(n) if rng.random() < density))
    return n, adj_from_edges(n, edges), covers


def support_filter(adj, cand, masks, one_pass=False):
    """The candidates left when each mask in turn keeps those that lie in
    it or next to one of its candidates still kept.

    The engine walks its pending covers from the highest index down, so
    callers pass the masks in that order.  With `one_pass` each mask's
    candidates come from `cand` itself, so the order does not matter.
    """
    keep = cand
    for m in masks:
        hit = m & (cand if one_pass else keep)
        reach = hit
        for u in range(len(adj)):
            if hit >> u & 1:
                reach |= adj[u]
        keep &= reach
    return keep


def reference_max_clique(adj, n, roots, initial, covers):
    """The engine's branch and bound, with its forced vertices and
    sequential support filter, but every node records all its
    candidates' colours.
    The engine records only the vertices that can branch, which must
    leave (size, members, nodes) exactly the same.
    """
    member = [sum(1 << j for j, m in enumerate(covers) if m >> v & 1) for v in range(n)]

    def masks(bits):
        # From the highest cover index down, the engine's order.
        return [covers[j] for j in range(len(covers) - 1, -1, -1) if bits >> j & 1]

    def color_sort(cand):
        order, colors, color = [], [], 0
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

    best, members, nodes, stack = initial, (), 0, []

    def expand(depth, cand, pend):
        nonlocal best, members, nodes
        nodes += 1
        while True:
            # Forced vertices: while a pending cover holds one candidate,
            # the first from the highest cover index, take it without a node.
            while pend:
                if not all(m & cand for m in masks(pend)):
                    return
                single = [j for j in range(len(covers) - 1, -1, -1)
                          if pend >> j & 1 and (covers[j] & cand).bit_count() == 1]
                if not single:
                    break
                u = (covers[single[0]] & cand).bit_length() - 1
                stack.append(u)
                depth += 1
                cand &= adj[u]
                pend &= ~member[u]
                if not cand and not pend and depth > best:
                    best, members = depth, tuple(sorted(stack))
                if depth + cand.bit_count() <= best:
                    return
            # Support filter on the candidates the forced vertices leave;
            # if it shrinks them, look for forced vertices again.
            keep = support_filter(adj, cand, masks(pend))
            if keep == cand:
                break
            cand = keep
            if depth + cand.bit_count() <= best or not all(m & cand for m in masks(pend)):
                return
            if not any((m & cand).bit_count() == 1 for m in masks(pend)):
                break
        order, colors = color_sort(cand)
        for idx in range(len(order) - 1, -1, -1):
            if depth + colors[idx] <= best:
                return
            v = order[idx]
            new_cand = cand & adj[v]
            rest = pend & ~member[v]
            stack.append(v)
            if new_cand:
                if all(m & new_cand for m in masks(rest)):
                    expand(depth + 1, new_cand, rest)
            elif not rest and depth + 1 > best:
                best, members = depth + 1, tuple(sorted(stack))
            del stack[depth:]
            cand &= ~(1 << v)
            if not all(m & cand for m in masks(pend & member[v])):
                return

    for i in roots:
        cand = adj[i] >> (i + 1) << (i + 1)
        pend = (1 << len(covers)) - 1 & ~member[i]
        if 1 + cand.bit_count() <= best or not all(m & cand for m in masks(pend)):
            continue
        stack.append(i)
        if cand:
            expand(1, cand, pend)
        elif best < 1:
            best, members = 1, (i,)
        stack.clear()
    return best, members, nodes


def mirror(n, adj, covers=(), requires=None, roots=None):
    """The same instance with vertex i renamed n-1-i."""

    def flip(bits):
        return int(bin(bits)[2:].zfill(n)[::-1], 2)

    return (
        [flip(row) for row in reversed(adj)],
        [flip(m) for m in covers],
        None if requires is None else list(requires)[::-1],
        None if roots is None else [n - 1 - i for i in roots],
    )


def unmirror(n, members):
    return tuple(sorted(n - 1 - v for v in members))


def reference_search(
    adj, n, roots, initial=0, stop_at=None, node_limit=None, covers=(), requires=None,
    classes=(),
):
    """The engine's whole contract in its mirror image, from the least vertex up.

    Root i explores the cliques whose least vertex is i.  Every node
    first takes its forced vertices, then applies the support filter
    (back to the forced vertices while a shrinking filter leaves a cover
    with one candidate), then colours all its candidates, each class
    taking the least vertex left.
    Covers are sets of indices; the capacity cut, the count cut, the
    recording rule and both limits follow the module docstring.  Returns
    (size, members, nodes, truncated).
    """
    k = len(covers)
    member = [{j for j, m in enumerate(covers) if m >> v & 1} for v in range(n)]
    if requires is None:
        req = [set(range(k))] * n
    else:
        req = [{j for j in range(k) if requires[v] >> j & 1} for v in range(n)]
    groups = [({j for j in range(k) if bits >> j & 1}, cap) for bits, cap in classes]
    best, members, nodes, stack = initial, (), 0, []

    class Stop(Exception):
        pass

    def meets(pend, cand):
        return all(covers[j] & cand for j in pend)

    def record(size):
        nonlocal best, members
        best, members = size, tuple(sorted(stack))
        if stop_at is not None and size >= stop_at:
            raise Stop(False)

    def color_sort(cand):
        order, colors, color = [], [], 0
        while cand:
            color += 1
            group = cand
            while group:
                v = (group & -group).bit_length() - 1
                cand &= ~(1 << v)
                group &= ~adj[v] & ~(1 << v)
                order.append(v)
                colors.append(color)
        return order, colors

    def expand(depth, cand, met, pend):
        nonlocal nodes
        if node_limit is not None and nodes >= node_limit:
            raise Stop(True)
        nodes += 1
        while True:
            # Forced vertices: while a pending cover holds one candidate,
            # the first from the highest cover index, take it without a node.
            while pend:
                if not meets(pend, cand):
                    return
                single = [j for j in sorted(pend, reverse=True)
                          if (covers[j] & cand).bit_count() == 1]
                if not single:
                    break
                u = (covers[single[0]] & cand).bit_length() - 1
                stack.append(u)
                depth += 1
                cand &= adj[u]
                met = met | member[u]
                pend = (pend | req[u]) - met
                if not pend and depth > best and (not cand or len(met) < k):
                    record(depth)
                if depth + cand.bit_count() <= best:
                    return
            # Support filter on the candidates the forced vertices leave,
            # highest cover index first; if it shrinks them, look for
            # forced vertices again.
            keep = support_filter(adj, cand, [covers[j] for j in sorted(pend, reverse=True)])
            if keep == cand:
                break
            cand = keep
            if depth + cand.bit_count() <= best or not meets(pend, cand):
                return
            if not any((covers[j] & cand).bit_count() == 1 for j in pend):
                break
        # Capacity cut: a clique below holds at most cap vertices of each
        # mask of a class, and any number outside its masks.
        held = cand | sum(1 << v for v in stack)
        for group, cap in groups:
            inside = sum(covers[j] for j in group)
            room = (held & ~inside).bit_count()
            room += sum(min(cap, (held & covers[j]).bit_count()) for j in group)
            if room <= best:
                return
        need = max((len(pend & group) for group, _ in groups), default=0)
        order, colors = color_sort(cand)
        for idx in range(len(order) - 1, -1, -1):
            if depth + colors[idx] <= best or colors[idx] < need:
                return
            v = order[idx]
            new_cand = cand & adj[v]
            new_met = met | member[v]
            rest = (pend | req[v]) - new_met
            stack.append(v)
            if not rest and depth + 1 > best and (not new_cand or len(new_met) < k):
                record(depth + 1)
            if new_cand and meets(rest, new_cand):
                expand(depth + 1, new_cand, new_met, rest)
            del stack[depth:]
            cand &= ~(1 << v)
            if not meets(pend, cand):
                return

    truncated = False
    try:
        for i in roots:
            if stop_at is not None and best >= stop_at:
                break
            cand = adj[i] >> (i + 1) << (i + 1)
            met = member[i]
            pend = req[i] - met
            if 1 + cand.bit_count() <= best or not meets(pend, cand):
                continue
            stack.append(i)
            if not pend and best < 1 and (not cand or len(met) < k):
                record(1)
            if cand:
                expand(1, cand, met, pend)
            stack.clear()
    except Stop as stop:
        truncated = stop.args[0]
    return best, members, nodes, truncated


class TestExactness:
    def test_edgeless(self):
        res = max_clique([0, 0, 0])
        assert res.size == 1
        assert len(res.members) == 1
        assert not res.truncated
        # A root with no lower candidate is recorded without a node.
        assert res.nodes == 0

    def test_empty_graph(self):
        res = max_clique([])
        assert res.size == 0 and res.members == ()

    def test_complete(self):
        n = 6
        adj = adj_from_edges(n, itertools.combinations(range(n), 2))
        res = max_clique(adj)
        assert res.size == 6
        assert res.members == tuple(range(6))
        # Vertex 0 has no lower neighbour: as the only root it costs no node.
        res = max_clique(adj_from_edges(3, itertools.combinations(range(3), 2)), roots=[0])
        assert (res.size, res.members, res.nodes) == (1, (0,), 0)

    def test_two_triangles_and_bridge(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        res = max_clique(adj_from_edges(6, edges))
        assert res.size == 3
        assert set(res.members) in ({0, 1, 2}, {3, 4, 5})

    def test_random_graphs_match_brute_force(self):
        rng = random.Random(1729)
        for _ in range(60):
            n = rng.randrange(1, 14)
            edges = [
                e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5
            ]
            adj = adj_from_edges(n, edges)
            expect, _ = brute_max_clique(n, adj)
            res = max_clique(adj)
            assert res.size == expect
            assert not res.truncated
            # returned members really form a clique of the claimed size
            ms = res.members
            assert len(ms) == res.size
            assert all(
                adj[a] >> b & 1 for a, b in itertools.combinations(ms, 2)
            )


class TestCovers:
    def test_random_graphs_match_brute_force(self):
        rng = random.Random(2718)
        empty = 0
        for _ in range(80):
            n, adj, covers = random_instance(rng)
            expect = brute_max_covering_clique(n, adj, covers)
            res = max_clique(adj, covers=covers)
            assert res.size == expect, (n, adj, covers)
            assert not res.truncated
            ms = res.members
            assert len(ms) == res.size
            assert all(adj[a] >> b & 1 for a, b in itertools.combinations(ms, 2))
            if ms:
                assert all(any(m >> v & 1 for v in ms) for m in covers)
            empty += expect == 0
        # the loop also covers instances with no covering clique at all
        assert 0 < empty < 80

    def test_matches_full_colouring_reference(self):
        # Same size, members and node count as a search that colours
        # every candidate, with incumbents, root subsets and covers.
        rng = random.Random(6007)
        improved = kept_initial = 0
        for case in range(240):
            n = rng.randrange(1, 41)
            density = rng.choice((0.3, 0.5, 0.7, 0.85))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            adj = adj_from_edges(n, edges)
            covers = [
                sum(1 << v for v in range(n) if rng.random() < rng.choice((0.1, 0.3, 0.6)))
                for _ in range(rng.randrange(0, 4))
            ]
            roots = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            if rng.random() < 0.3:
                roots = list(range(n))
            initial = rng.randrange(0, 6)
            # The engine branches from the largest vertex: on the mirrored
            # instance it must take every branch the reference takes.
            madj, mcovers, _, mroots = mirror(n, adj, covers, roots=roots)
            res = max_clique(madj, roots=mroots, initial=initial, covers=mcovers)
            members = unmirror(n, res.members)
            expect = reference_max_clique(adj, n, roots, initial, covers)
            assert (res.size, members, res.nodes) == expect, case
            assert not res.truncated
            if n <= 14:
                brute = brute_max_covering_clique(n, madj, mcovers, set(mroots))
                assert res.size == max(initial, brute), case
            if res.members:
                improved += 1
                assert len(members) == res.size > initial
                assert min(members) in roots
                assert all(adj[a] >> b & 1 for a, b in itertools.combinations(members, 2))
                assert all(any(m >> v & 1 for v in members) for m in covers)
            else:
                kept_initial += 1
                assert res.size == initial
        # the cases include both outcomes of the incumbent
        assert improved > 20 and kept_initial > 20

    def test_no_covers_is_plain_search(self):
        rng = random.Random(31)
        for _ in range(20):
            n, adj, _ = random_instance(rng)
            assert max_clique(adj, covers=()) == max_clique(adj)

    def test_serial_and_parallel_agree(self):
        rng = random.Random(577)
        for _ in range(6):
            n, adj, covers = random_instance(rng, max_n=18)
            serial = max_clique_parallel(adj, covers=covers, workers=1)
            par = max_clique_parallel(adj, covers=covers, workers=2)
            assert par.size == serial.size
            assert par.members == serial.members
            assert not par.truncated

    def test_mask_outside_vertices_rejected(self):
        with pytest.raises(ValueError):
            max_clique([0, 0], covers=[0b100])


class TestRequires:
    def test_random_graphs_match_subset_dp(self):
        # Prefix-shaped requires, as level covers give them, with root
        # subsets and incumbents.
        rng = random.Random(8128)
        improved = kept_initial = internal = 0
        for case in range(300):
            n = rng.randrange(1, 14)
            density = rng.choice((0.3, 0.5, 0.7, 0.9))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            adj = adj_from_edges(n, edges)
            covers, requires, classes = random_levels(rng, n)
            roots = list(range(n))
            if rng.random() < 0.3:
                roots = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            initial = rng.choice((0, 0, 1, 2))
            res = max_clique(adj, roots, initial, covers=covers, requires=requires,
                             classes=classes)
            expect = brute_max_requiring_clique(n, adj, covers, requires, set(roots))
            assert res.size == max(initial, expect), case
            assert not res.truncated
            if res.members:
                improved += 1
                ms = res.members
                assert len(ms) == res.size > initial and max(ms) in roots
                assert qualifies(adj, covers, requires, ms), case
                # some best cliques are not maximal in the graph
                internal += any(
                    all(adj[u] >> v & 1 for v in ms) for u in range(n) if u not in ms
                )
            else:
                kept_initial += 1
                assert res.size == initial
        assert improved > 100 and kept_initial > 20 and internal > 5

    def test_count_cut_only_prunes(self):
        # With every vertex requiring every cover the answer matches the
        # plain cover search, and the count cut never adds nodes.
        rng = random.Random(99)
        for _ in range(60):
            n = rng.randrange(1, 30)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            adj = adj_from_edges(n, edges)
            covers, _, classes = random_levels(rng, n)
            everything = [(1 << len(covers)) - 1] * n
            plain = max_clique(adj, covers=covers)
            cut = max_clique(adj, covers=covers, requires=everything, classes=classes)
            assert cut.size == plain.size
            assert cut.nodes <= plain.nodes

    def test_serial_and_parallel_agree(self):
        rng = random.Random(314)
        for _ in range(4):
            n = rng.randrange(8, 18)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
            adj = adj_from_edges(n, edges)
            covers, requires, classes = random_levels(rng, n)
            kw = dict(covers=covers, requires=requires, classes=capped(rng, adj, covers, classes))
            serial = max_clique_parallel(adj, workers=1, **kw)
            par = max_clique_parallel(adj, workers=2, **kw)
            assert (par.size, par.members) == (serial.size, serial.members)

    def test_bad_requires_rejected(self):
        with pytest.raises(ValueError):
            max_clique([0, 0], covers=[0b01, 0b10], requires=[0b11])
        with pytest.raises(ValueError):
            max_clique([0, 0], covers=[0b01, 0b10], requires=[0b11, 0b100])


class TestControls:
    def test_initial_suppresses_non_improvements(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        adj = adj_from_edges(3, edges)
        res = max_clique(adj, initial=3)
        assert res.size == 3
        assert res.members == ()
        res = max_clique(adj, initial=2)
        assert res.size == 3
        assert len(res.members) == 3

    def test_stop_at_returns_early_witness(self):
        n = 12
        adj = adj_from_edges(n, itertools.combinations(range(n), 2))
        res = max_clique(adj, stop_at=4)
        # may overshoot on a deep leaf, never undershoots
        assert res.size >= 4
        assert len(res.members) == res.size
        assert not res.truncated

    def test_node_limit_truncates(self):
        rng = random.Random(9)
        n = 40
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.7]
        adj = adj_from_edges(n, edges)
        res = max_clique(adj, node_limit=5)
        assert res.truncated
        full = max_clique(adj)
        assert not full.truncated
        assert full.size >= res.size

    def test_roots_restriction(self):
        # roots {1} explores only cliques whose largest vertex is 1
        edges = [(0, 1), (2, 3), (3, 4), (2, 4)]
        adj = adj_from_edges(5, edges)
        assert max_clique(adj, roots=[1]).size == 2
        assert max_clique(adj, roots=[1, 4]).size == 3

    def test_root_outside_vertices_rejected(self):
        # n is len(adj): a root past the last row, or a negative one, is
        # refused rather than read as a row or a bit.
        for adj, roots in (([2, 1], [5]), ([2, 1], [2]), ([2, 1], [-1])):
            with pytest.raises(ValueError, match="root"):
                max_clique(adj, roots=roots)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="root"):
                max_clique_parallel([2, 1], [1, 5], workers=workers)

    def test_self_loop_rejected(self):
        # Colouring removes a class by its members' neighbours, which a
        # looped vertex would survive.
        adj = adj_from_edges(3, [(0, 1), (1, 2)])
        adj[1] |= 1 << 1
        with pytest.raises(ValueError, match="self-loop"):
            max_clique(adj)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="self-loop"):
                max_clique_parallel(adj, workers=workers)


class TestForcedVertices:
    def test_forced_vertex_takes_no_node(self):
        # Root 2 of a triangle has the candidates {0, 1}, and the cover
        # {0} holds only one of them.  The root's node takes 0 without a
        # node of its own and then branches on 1; a search that branched
        # on 0 would spend a second node below it.
        adj = adj_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert max_clique(adj).nodes == 2
        res = max_clique(adj, covers=[0b001])
        assert (res.size, res.members, res.nodes) == (3, (0, 1, 2), 1)


def random_groups(rng, n):
    """Covers in groups of disjoint masks, requires from their prefixes,
    and the groups as classes with cap n.

    A vertex lies in at most one mask of a group, and it may lie in
    none.  It requires a prefix of each group: the masks up to its own,
    or a random prefix when it is in no mask of the group (as zero
    covers leave a vertex that meets none of them).
    """
    covers, requires, classes = [], [0] * n, []
    for _ in range(rng.randrange(1, 4)):
        size = rng.randrange(1, 5)
        slot = [rng.randrange(-1, size) for _ in range(n)]
        for v in range(n):
            prefix = slot[v] + 1 if slot[v] >= 0 else rng.randrange(size + 1)
            requires[v] |= ((1 << prefix) - 1) << len(covers)
        classes.append((((1 << size) - 1) << len(covers), n))
        covers += [sum(1 << v for v in range(n) if slot[v] == l) for l in range(size)]
    return covers, requires, classes


class TestSupportFilter:
    def test_level_shaped_instances_match_subset_dp(self):
        # The filter runs at every node with pending covers; the sizes
        # must still be those of the subset DP, under incumbents, stop_at
        # and root subsets.
        rng = random.Random(1717)
        improved = kept_initial = stopped = 0
        for case in range(300):
            n = rng.randrange(1, 15)
            density = rng.choice((0.3, 0.5, 0.7, 0.9))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            adj = adj_from_edges(n, edges)
            covers, requires, classes = random_groups(rng, n)
            roots = list(range(n))
            if rng.random() < 0.3:
                roots = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            initial = rng.choice((0, 0, 1, 2))
            stop_at = rng.choice((None, None, 2, 3, 4))
            res = max_clique(adj, roots, initial, stop_at, covers=covers, requires=requires,
                             classes=classes)
            best = max(initial, brute_max_requiring_clique(n, adj, covers, requires, set(roots)))
            assert not res.truncated
            if stop_at is not None and stop_at <= initial:
                # The incumbent has reached the target: no node is spent.
                assert (res.size, res.nodes) == (initial, 0), case
            elif stop_at is not None and best >= stop_at:
                # A stop may come at any size from stop_at to the maximum.
                stopped += 1
                assert stop_at <= res.size <= best, case
            else:
                assert res.size == best, case
            if res.members:
                improved += 1
                ms = res.members
                assert len(ms) == res.size > initial and max(ms) in roots
                assert qualifies(adj, covers, requires, ms), case
            else:
                kept_initial += 1
                assert res.size == initial
        assert improved > 100 and kept_initial > 20 and stopped > 20

    def test_sequential_filter_is_sound_and_refines_one_pass(self):
        # On the same level-shaped instances, with random candidates and
        # pending covers: every clique inside cand that meets all pending
        # covers survives the sequential filter, and the sequential filter
        # keeps nothing the one-pass filter drops.
        rng = random.Random(1818)
        cliques = stronger = 0
        for case in range(300):
            n = rng.randrange(1, 15)
            density = rng.choice((0.3, 0.5, 0.7, 0.9))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            adj = adj_from_edges(n, edges)
            covers, _, _ = random_groups(rng, n)
            cand = sum(1 << v for v in range(n) if rng.random() < 0.7)
            masks = [covers[j] for j in range(len(covers) - 1, -1, -1) if rng.random() < 0.5]
            keep = support_filter(adj, cand, masks)
            once = support_filter(adj, cand, masks, one_pass=True)
            assert not keep & ~once, case
            stronger += keep != once
            sub = cand
            while sub:
                members = [v for v in range(n) if sub >> v & 1]
                clique = all(adj[a] >> b & 1 for a, b in itertools.combinations(members, 2))
                if clique and all(m & sub for m in masks):
                    cliques += 1
                    assert not sub & ~keep, case
                sub = (sub - 1) & cand
        assert cliques > 1000 and stronger > 10

    def test_apart_is_each_rows_complement(self):
        # The filter and the colouring remove a vertex's neighbours with
        # one AND of apart[q]: every vertex but q - 1 outside row q - 1.
        rng = random.Random(2424)
        for n in (1, 2, 9, 70):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
            adj = adj_from_edges(n, edges)
            apart = _Search(adj, (), None, (), None, None).apart
            assert len(apart) == n + 1
            for v in range(n):
                want = sum(1 << u for u in range(n) if u != v and not adj[v] >> u & 1)
                assert apart[v + 1] == want, (n, v)


class TestCapacityCut:
    def test_capped_classes_match_subset_dp(self):
        # Caps from clique numbers hold on any graph, so the cut only
        # prunes: the sizes are those of the subset DP, and the members
        # those of the same search with caps no clique can reach, under
        # incumbents, stop_at and root subsets.  The caps are tight: one
        # less loses the maximum on many instances.
        rng = random.Random(2323)
        improved = stopped = tight = 0
        for case in range(300):
            n = rng.randrange(1, 15)
            density = rng.choice((0.3, 0.5, 0.7, 0.9))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            adj = adj_from_edges(n, edges)
            make = rng.choice((random_levels, random_groups))
            covers, requires, loose = make(rng, n)
            classes = capped(rng, adj, covers, loose)
            roots = list(range(n))
            if rng.random() < 0.3:
                roots = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
            initial = rng.choice((0, 0, 1, 2))
            stop_at = rng.choice((None, None, 2, 3, 4))
            args = (adj, roots, initial, stop_at, None, None, covers, requires)
            res = max_clique(*args, classes=classes)
            plain = max_clique(*args, classes=loose)
            best = max(initial, brute_max_requiring_clique(n, adj, covers, requires, set(roots)))
            assert not res.truncated
            if stop_at is not None and stop_at <= initial:
                assert (res.size, res.nodes) == (initial, 0), case
            elif stop_at is not None and stop_at <= best:
                stopped += 1
                assert stop_at <= res.size <= best, case
            else:
                assert res.size == best, case
            assert (res.size, res.members) == (plain.size, plain.members), case
            assert res.nodes <= plain.nodes, case
            below = [(bits, cap - 1) for bits, cap in classes]
            tight += max_clique(*args, classes=below).size < res.size
            if res.members:
                improved += 1
                assert qualifies(adj, covers, requires, res.members), case
        assert improved > 100 and stopped > 20 and tight > 20, (improved, stopped, tight)

    def test_box_graphs_mirror_with_level_caps(self):
        # Box compatibility graphs, where levels hold many points and the
        # cut bites often: the engine makes every decision of the
        # least-vertex search, whose cut comes after the forced vertices.
        # A cut taken before them keeps every size but moves the node
        # count of some of these, such as (3,1,2) on [0,3]^3.
        cases = 0
        boxes = {2: [(4, 4), (3, 4), (5, 5)], 3: [(2, 2, 2), (3, 3, 3), (2, 3, 3), (3, 3, 2)]}
        for w in boxes:
            for seq in itertools.product((1, 2, 3), repeat=w):
                for limits in boxes[w]:
                    n, adj, covers, requires, classes = box_instance(seq, limits)
                    for initial in (0, 2):
                        assert_mirrors(n, adj, covers, requires, classes, initial=initial)
                        cases += 1
        assert cases == 270

    def test_bad_classes_rejected(self):
        adj = adj_from_edges(3, [(0, 1), (1, 2)])
        covers = [0b001, 0b010, 0b011]
        for bits in (0b1000, -1):
            with pytest.raises(ValueError, match="outside"):
                max_clique(adj, covers=covers, classes=[(bits, 1)])
        with pytest.raises(ValueError, match="overlapping"):
            max_clique(adj, covers=covers, classes=[(0b011, 1), (0b110, 1)])
        for workers in (1, 2):
            with pytest.raises(ValueError, match="overlapping"):
                max_clique_parallel(adj, covers=covers, classes=[(0b101, 1)], workers=workers)


def random_swaps(rng, n, count):
    """Involutions of vertices 0..n-2, each a product of disjoint swaps;
    vertex n-1 is fixed."""
    swaps = []
    for _ in range(count):
        moved = rng.sample(range(n - 1), 2 * rng.randrange(1, (n - 1) // 2 + 1))
        perm = list(range(n))
        for a, b in zip(moved[::2], moved[1::2]):
            perm[a], perm[b] = b, a
        swaps.append(perm)
    return swaps


def closure(items, swaps, image):
    """Every image of the items under the group the swaps generate."""
    seen = set(items)
    todo = list(seen)
    while todo:
        item = todo.pop()
        for perm in swaps:
            new = image(perm, item)
            if new not in seen:
                seen.add(new)
                todo.append(new)
    return seen


class TestRootSymmetry:
    def test_invariant_graphs_match_subset_dp_over_the_core(self):
        # Graphs, covers and requires invariant under a group of vertex
        # swaps that fix the root n-1: the root's search, with a core that
        # is a union of orbits and the orbits removed at the root node,
        # finds the largest qualifying clique of the root and the core.
        rng = random.Random(2011)
        vertex = lambda perm, v: perm[v]
        pair = lambda perm, e: tuple(sorted((perm[e[0]], perm[e[1]])))
        improved = removed = pruned = 0
        for case in range(300):
            n = rng.randrange(4, 15)
            root = n - 1
            swaps = random_swaps(rng, n, rng.randrange(1, 4))
            orbits = {v: sum(1 << u for u in closure([v], swaps, vertex)) for v in range(n)}
            density = rng.choice((0.3, 0.5, 0.7, 0.9))
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            adj = adj_from_edges(n, closure(edges, swaps, pair))
            groups = set(orbits.values())
            core = sum(g for g in groups if rng.random() < 0.8) & adj[root]
            covers, requires = [], None
            if rng.random() < 0.7:
                # Each cover is a union of orbits, and requires are constant
                # on every orbit.
                covers = [
                    sum(g for g in groups if rng.random() < 0.4)
                    for _ in range(rng.randrange(1, 4))
                ]
                by_orbit = {g: rng.randrange(1 << len(covers)) for g in groups}
                requires = [by_orbit[orbits[v]] for v in range(n)]
            initial = rng.choice((0, 0, 1, 2))
            asked = []

            def orbit(v):
                asked.append(v)
                return orbits[v]

            def symmetry(i, cand):
                assert i == root
                return cand & core, orbit

            res = max_clique(adj, [root], initial, covers=covers, requires=requires,
                             symmetry=symmetry)
            # The subset DP over the root and its core, renumbered
            # 0..m-1 with the root on top.
            keep = [v for v in range(n) if core >> v & 1] + [root]
            m = len(keep)
            sub_adj = [sum(1 << j for j, u in enumerate(keep) if adj[v] >> u & 1) for v in keep]
            sub_covers = [sum(1 << j for j, u in enumerate(keep) if c >> u & 1) for c in covers]
            sub_requires = [(requires or [(1 << len(covers)) - 1] * n)[v] for v in keep]
            best = brute_max_requiring_clique(m, sub_adj, sub_covers, sub_requires, {m - 1})
            assert res.size == max(initial, best), case
            assert not res.truncated
            # Only the root node removes orbits, each after one of its own
            # branches, which skip the vertices removed before them: so
            # no orbit is asked for twice.
            assert len({orbits[v] for v in asked}) == len(asked), case
            removed += any(orbits[v] & core != 1 << v for v in asked)
            if res.members:
                improved += 1
                assert res.members[-1] == root and len(res.members) == res.size
                assert not sum(1 << v for v in res.members[:-1]) & ~core, case
                assert qualifies(adj, covers, requires or [(1 << len(covers)) - 1] * n,
                                 res.members), case
            plain = max_clique(adj, [root], initial, covers=covers, requires=requires,
                               symmetry=lambda i, cand: (cand & core, lambda v: 1 << v))
            assert plain.size == res.size, case
            pruned += res.nodes < plain.nodes
        assert improved > 150 and removed > 100 and pruned > 0, (improved, removed, pruned)

    def test_orbit_removal_below_the_root_loses_the_maximum(self):
        # The swaps (0 7)(1 2)(3 5) fix the root 8 and map the graph onto
        # itself, and its two maximum cliques, {0,2,3,6,8} and
        # {1,5,6,7,8}, onto each other.  A child of the root holds a
        # vertex they move, so removing orbits there too would report 4.
        edges = [
            (0, 2), (0, 3), (0, 6), (0, 8), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7),
            (1, 8), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (3, 4), (3, 6), (3, 8),
            (4, 5), (4, 8), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8),
        ]
        adj = adj_from_edges(9, edges)
        perm = [7, 2, 1, 5, 4, 3, 6, 0, 8]
        assert closure(edges, [perm], lambda p, e: tuple(sorted((p[e[0]], p[e[1]])))) == set(edges)
        res = max_clique(adj, [8], symmetry=lambda i, cand: (cand, lambda v: 1 << v | 1 << perm[v]))
        assert (res.size, res.members) == (5, (1, 5, 6, 7, 8))


class TestParallel:
    def test_matches_serial_and_is_deterministic(self):
        rng = random.Random(4242)
        n = 18
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        adj = adj_from_edges(n, edges)
        serial = max_clique_parallel(adj, workers=1)
        for workers in (2, 3):
            par = max_clique_parallel(adj, workers=workers)
            assert par.size == serial.size
            assert par.members == serial.members
            assert not par.truncated


def assert_mirrors(n, adj, covers=(), requires=None, classes=(), roots=None, initial=0,
                   stop_at=None, node_limit=None):
    """The engine on the mirrored instance makes every decision of the
    least-vertex search: same size, members, nodes and truncation."""
    madj, mcovers, mrequires, mroots = mirror(n, adj, covers, requires, roots)
    res = max_clique(madj, mroots, initial, stop_at, node_limit, None, mcovers, mrequires,
                     classes=classes)
    least_roots = range(n) if roots is None else roots
    expect = reference_search(
        adj, n, least_roots, initial, stop_at, node_limit, covers, requires, classes
    )
    assert (res.size, unmirror(n, res.members), res.nodes, res.truncated) == expect


class TestMirror:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_engine_mirrors_least_vertex_search(self, data):
        # The engine mirrors the least-vertex search under every control
        # it takes.
        n = data.draw(st.integers(0, 30), label="n")
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        density = data.draw(st.sampled_from((0.3, 0.5, 0.7, 0.9)), label="density")
        adj = adj_from_edges(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
        )
        kind = data.draw(st.sampled_from(("none", "masks", "levels", "any")), label="covers")
        covers, requires, classes = [], None, []
        if kind == "masks":
            covers = [
                sum(1 << v for v in range(n) if rng.random() < 0.4)
                for _ in range(rng.randrange(1, 4))
            ]
        elif kind != "none":
            # Deep levels make the count cut bite.
            covers, requires, classes = random_levels(
                rng, n, data.draw(st.integers(3, 8), label="levels")
            )
            if kind == "any":
                requires = [rng.randrange(1 << len(covers)) for _ in range(n)]
            if data.draw(st.booleans(), label="caps"):
                classes = capped(rng, adj, covers, classes)
        roots = None
        if n and data.draw(st.booleans(), label="restrict roots"):
            roots = rng.sample(range(n), rng.randrange(1, n + 1))
        initial = data.draw(st.integers(0, 4), label="initial")
        stop_at = data.draw(st.none() | st.integers(1, 8), label="stop_at")
        node_limit = data.draw(st.none() | st.integers(0, 300), label="node_limit")
        assert_mirrors(n, adj, covers, requires, classes, roots, initial, stop_at, node_limit)

    def test_level_covers_at_scale(self):
        # Whole searches over deep level covers on 30 to 50 vertices, where
        # several pending covers interact: the order of the entry walk,
        # the sequential filter and the return to forced vertices each
        # move the node count on some of these instances.  Each is also
        # searched with caps from clique numbers, which the capacity cut
        # reads, and the cut prunes some of them.
        rng = random.Random(1919)
        pruned = 0
        for case in range(100):
            n = rng.randrange(30, 51)
            density = rng.choice((0.6, 0.8))
            adj = adj_from_edges(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
            )
            covers, requires, classes = random_levels(rng, n, rng.randrange(3, 9))
            assert_mirrors(n, adj, covers, requires, classes)
            tight = capped(random.Random(case), adj, covers, classes)
            assert_mirrors(n, adj, covers, requires, tight)
            pruned += max_clique(adj, covers=covers, requires=requires, classes=tight).nodes < (
                max_clique(adj, covers=covers, requires=requires, classes=classes).nodes
            )
        assert pruned > 20, pruned

    def test_root_with_an_empty_required_cover_costs_no_node(self):
        # Root 2 requires the cover {2}, which it meets, and the cover {3},
        # which holds no candidate below it: its entry walk cuts it before
        # it is counted.  Root 1 requires nothing and spends one node.
        adj = adj_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        covers = [0b0100, 0b1000]
        res = max_clique(adj, [2], covers=covers, requires=[0, 0, 0b11, 0b10])
        assert (res.size, res.members, res.nodes) == (0, (), 0)
        res = max_clique(adj, [2, 1], covers=covers, requires=[0, 0, 0b11, 0b10])
        assert (res.size, res.members, res.nodes) == (2, (0, 1), 1)
