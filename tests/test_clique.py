"""The bitmask branch-and-bound clique solver against subset enumeration."""

import itertools
import random

import pytest

from crossvec.clique import max_clique, max_clique_parallel


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


def brute_max_covering_clique(n, adj, covers):
    """Size of the largest clique that meets every cover mask."""
    # is_clique[s] for every vertex subset s, built from s minus its
    # lowest vertex.
    is_clique = [True] * (1 << n)
    best = 0
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        v = low.bit_length() - 1
        is_clique[s] = is_clique[rest] and adj[v] & rest == rest
        if is_clique[s] and all(s & m for m in covers):
            best = max(best, s.bit_count())
    return best


def random_instance(rng, max_n=14):
    n = rng.randrange(1, max_n + 1)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    covers = []
    for _ in range(rng.randrange(0, 4)):
        density = rng.choice((0.1, 0.3, 0.6))
        covers.append(sum(1 << v for v in range(n) if rng.random() < density))
    return n, adj_from_edges(n, edges), covers


class TestExactness:
    def test_edgeless(self):
        res = max_clique([0, 0, 0], 3)
        assert res.size == 1
        assert len(res.members) == 1
        assert not res.truncated

    def test_empty_graph(self):
        res = max_clique([], 0)
        assert res.size == 0 and res.members == ()

    def test_complete(self):
        n = 6
        adj = adj_from_edges(n, itertools.combinations(range(n), 2))
        res = max_clique(adj, n)
        assert res.size == 6
        assert res.members == tuple(range(6))

    def test_two_triangles_and_bridge(self):
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
        res = max_clique(adj_from_edges(6, edges), 6)
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
            res = max_clique(adj, n)
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
            res = max_clique(adj, n, covers=covers)
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

    def test_no_covers_is_plain_search(self):
        rng = random.Random(31)
        for _ in range(20):
            n, adj, _ = random_instance(rng)
            assert max_clique(adj, n, covers=()) == max_clique(adj, n)

    def test_serial_and_parallel_agree(self):
        rng = random.Random(577)
        for _ in range(6):
            n, adj, covers = random_instance(rng, max_n=18)
            serial = max_clique_parallel(adj, n, covers=covers, workers=1)
            par = max_clique_parallel(adj, n, covers=covers, workers=2)
            assert par.size == serial.size
            assert par.members == serial.members
            assert not par.truncated

    def test_mask_outside_vertices_rejected(self):
        with pytest.raises(ValueError):
            max_clique([0, 0], 2, covers=[0b100])


class TestControls:
    def test_initial_suppresses_non_improvements(self):
        edges = [(0, 1), (1, 2), (0, 2)]
        adj = adj_from_edges(3, edges)
        res = max_clique(adj, 3, initial=3)
        assert res.size == 3
        assert res.members == ()
        res = max_clique(adj, 3, initial=2)
        assert res.size == 3
        assert len(res.members) == 3

    def test_stop_at_returns_early_witness(self):
        n = 12
        adj = adj_from_edges(n, itertools.combinations(range(n), 2))
        res = max_clique(adj, n, stop_at=4)
        # may overshoot on a deep leaf, never undershoots
        assert res.size >= 4
        assert len(res.members) == res.size
        assert not res.truncated

    def test_node_limit_truncates(self):
        rng = random.Random(9)
        n = 40
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.7]
        adj = adj_from_edges(n, edges)
        res = max_clique(adj, n, node_limit=5)
        assert res.truncated
        full = max_clique(adj, n)
        assert not full.truncated
        assert full.size >= res.size

    def test_roots_restriction(self):
        # roots {0} explores only cliques whose least vertex is 0
        edges = [(0, 1), (2, 3), (3, 4), (2, 4)]
        adj = adj_from_edges(5, edges)
        assert max_clique(adj, 5, roots=[0]).size == 2
        assert max_clique(adj, 5, roots=[0, 2]).size == 3


class TestParallel:
    def test_matches_serial_and_is_deterministic(self):
        rng = random.Random(4242)
        n = 18
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        adj = adj_from_edges(n, edges)
        serial = max_clique_parallel(adj, n, workers=1)
        for workers in (2, 3):
            par = max_clique_parallel(adj, n, workers=workers)
            assert par.size == serial.size
            assert par.members == serial.members
            assert not par.truncated
