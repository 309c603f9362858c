"""Normalization, search boxes, exact search, digraph and compression."""

import random
from types import SimpleNamespace

import pytest

from crossvec import (
    BoxTooLargeError,
    Family,
    SearchBox,
    SearchLimits,
    auto_box,
    build_compatibility_graph,
    build_cross_digraph,
    compress,
    compression_box,
    exists_family,
    max_family_in_box,
    max_family_size,
    normalize,
    product_family,
    ranked_max_family_size,
    verify,
)
from crossvec.clique import max_clique

import crossvec.search as search_mod

from helpers import (
    box_points,
    brute_max_family,
    pair_relation,
    random_verified_family,
    relation_table,
)


def random_any_family(rng, w, n, span):
    vs = set()
    while len(vs) < n:
        vs.add(tuple(rng.randrange(-span, span + 1) for _ in range(w)))
    return Family(w, sorted(vs))


class TestNormalize:
    def test_frozen_far_pair(self):
        f = Family(2, [(0, 100), (100, 0)])
        assert normalize(f, 2).vectors == ((0, 2), (2, 0))

    def test_translates_minima_to_zero(self):
        g = normalize(product_family(2, 3), 2)
        assert g.vectors == ((0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_empty(self):
        f = Family(2, [])
        assert normalize(f, 2) is f

    def test_relations_preserved_and_idempotent(self):
        # capping is total: it needs no verification precondition
        rng = random.Random(11731)
        for _ in range(250):
            w = rng.randrange(1, 5)
            seq = tuple(sorted(rng.randrange(1, 4) for _ in range(w)))
            f = random_any_family(rng, w, rng.randrange(1, 8), span=30)
            g = normalize(f, seq)
            assert len(g) == len(f)
            assert relation_table(f.vectors, seq) == relation_table(g.vectors, seq)
            assert normalize(g, seq) == g
            for i in range(w):
                vals = sorted({v[i] for v in g})
                assert vals[0] == 0
                assert all(b - a <= seq[i] for a, b in zip(vals, vals[1:]))

    def test_verifies_iff_input_does(self):
        rng = random.Random(11732)
        for _ in range(100):
            k = rng.randrange(1, 4)
            f = random_any_family(rng, 3, rng.randrange(2, 7), span=9)
            assert verify(normalize(f, k), k).ok == verify(f, k).ok


class TestBoxes:
    def test_search_box_basics(self):
        b = SearchBox((4, 3))
        assert b.width == 2
        assert b.size == 20
        assert str(b) == "[0,4]x[0,3]"
        assert str(SearchBox((9, 9, 9))) == "[0,9]^3"
        assert len(list(b.points())) == 20
        with pytest.raises(ValueError):
            SearchBox((3, -1))
        with pytest.raises(ValueError):
            SearchBox(())

    def test_auto_box(self):
        b = auto_box(2, 3, 5)
        assert b.limits == (8, 8, 8)
        assert b.complete_for == 5
        b = auto_box((1, 2, 3), 3, 4)
        assert b.limits == (9, 9, 9)

    def test_compression_box(self):
        b = compression_box(3, 3, 10)
        assert b.limits == (9, 9, 9)
        assert b.complete_for == 10


class TestCompatibilityGraph:
    def test_small_grid_against_oracle(self):
        # (ks, box limits, rank slice or None for the whole box)
        for ks, limits, rank in (
            ((2, 2), (2, 2), None),
            ((2, 2, 2), (3, 1, 2), None),
            ((1, 2, 3), (3, 3, 3), None),
            ((2, 2, 2, 2), (2, 2, 2, 2), None),
            ((3, 3, 3), (4, 4, 4), 6),
            ((1, 2, 3), (4, 2, 3), 4),
        ):
            g = build_compatibility_graph(ks, SearchBox(limits), rank=rank)
            pts = [p for p in box_points(limits) if rank is None or sum(p) == rank]
            assert g.vectors == tuple(pts)
            free = 0
            for i in range(g.n):
                assert not g.adj[i] >> i & 1
                for j in range(i + 1, g.n):
                    bit = g.adj[i] >> j & 1
                    assert bit == (g.adj[j] >> i & 1)
                    assert bit == (pair_relation(pts[i], pts[j], ks) == "free")
                    free += bit
            assert g.edge_count() == free
        g = build_compatibility_graph(2, SearchBox((2, 2)))
        assert max_clique(g.adj, g.n).size == 2

    def test_memory_guard(self):
        with pytest.raises(BoxTooLargeError):
            build_compatibility_graph(2, SearchBox((99, 99)), memory_mb=0.1)


class TestExistsFamily:
    def test_threshold_two_width_two(self):
        hit = exists_family(2, 2, 2)
        assert hit.found and hit.exhaustive
        assert len(hit.witness) == 2
        assert verify(hit.witness, 2).ok
        miss = exists_family(2, 2, 3)
        assert miss.found is False
        assert miss.exhaustive  # auto box is complete for m=3: f(2,2) < 3
        assert miss.best_size == 2
        assert miss.target == 3

    def test_per_coordinate_thresholds(self):
        miss = exists_family((1, 1, 2), 3, 3)
        assert not miss.found and miss.exhaustive
        assert miss.best_size == 2
        hit = exists_family((1, 1, 2), 3, 2)
        assert hit.found
        assert verify(hit.witness, (1, 1, 2)).ok

    def test_explicit_box_refutation_is_not_global(self):
        # a user box carries no completeness certificate
        res = exists_family(2, 2, 3, box=SearchBox((1, 1)))
        assert not res.found
        assert not res.exhaustive
        assert not res.truncated

    def test_node_limit_truncates(self):
        res = exists_family(2, 2, 3, limits=SearchLimits(node_limit=1))
        assert res.truncated and not res.exhaustive and not res.found

    def test_box_too_large_becomes_truncated_result(self):
        res = max_family_in_box(
            2, SearchBox((99, 99)), limits=SearchLimits(memory_mb=0.1)
        )
        assert res.truncated and not res.exhaustive
        assert res.best_size == 0
        assert any("box" in note for note in res.notes)

    def test_time_limit_covers_graph_build(self):
        # the auto box [0,27]^3 takes far longer than the limit to build
        limit = 0.05
        res = exists_family(3, 3, 10, limits=SearchLimits(time_limit=limit))
        assert res.truncated and not res.exhaustive and not res.found
        assert res.elapsed <= limit + 0.3
        assert any("building the compatibility graph" in n for n in res.notes)
        res = max_family_in_box(
            3, SearchBox((27, 27, 27)), limits=SearchLimits(time_limit=limit)
        )
        assert res.truncated and not res.exhaustive
        assert res.best_size == 0
        assert res.elapsed <= limit + 0.3
        assert any("building the compatibility graph" in n for n in res.notes)

    def test_zero_cover_prunes_f33_refutation(self):
        # Without the zero-cover cut this refutation takes 399,547 nodes.
        res = exists_family(3, 3, 10, box=compression_box(3, 3, 10))
        assert res.found is False and res.exhaustive and not res.truncated
        assert res.best_size == 9
        assert res.nodes < 150_000

    def test_failing_witness_check_raises(self, monkeypatch):
        bad = SimpleNamespace(ok=False)
        monkeypatch.setattr(search_mod, "verify", lambda *a, **kw: bad)
        with pytest.raises(RuntimeError):
            exists_family(2, 2, 2)
        with pytest.raises(RuntimeError):
            max_family_in_box(2, SearchBox((2, 2)))
        with pytest.raises(RuntimeError):
            ranked_max_family_size(2, 3)


class TestMaxFamily:
    def test_known_small_values(self):
        for k, w, expect in ((2, 2, 2), (3, 2, 3), (2, 3, 4)):
            res = max_family_size(k, w)
            assert res.best_size == expect
            assert res.exhaustive and not res.truncated
            assert verify(res.witness, k).ok
            assert len(res.witness) == expect

    def test_uniform_threshold_searches_compression_box(self):
        res = max_family_size(3, 3)
        assert res.best_size == 9
        assert res.exhaustive and not res.truncated
        assert str(res.box) == "[0,9]^3"
        assert res.box.derivation.startswith("compression-complete")
        assert verify(res.witness, 3).ok and len(res.witness) == 9

    def test_box_results_match_brute_force(self):
        for seq, limits in (
            ((2, 2), (2, 2)),
            ((2, 2), (4, 4)),
            ((2, 2), (3, 2)),
            ((1, 2), (2, 2)),
            ((2, 2, 2), (2, 2, 2)),
            ((2, 2, 2), (3, 3, 3)),
        ):
            expect, _ = brute_max_family(seq, limits)
            res = max_family_in_box(seq, SearchBox(limits))
            assert res.best_size == expect
            assert not res.truncated
            assert verify(res.witness, seq).ok
            assert all(
                0 <= v[i] <= limits[i] for v in res.witness for i in range(len(seq))
            )

    def test_workers_deterministic(self):
        one = max_family_size(2, 3, workers=1)
        two = max_family_size(2, 3, workers=2)
        assert one.best_size == two.best_size == 4
        assert one.witness == two.witness


class TestRankedSearch:
    def test_known_values(self):
        for k, w, expect in ((2, 3, 4), (1, 4, 1), (2, 4, 8)):
            res = ranked_max_family_size(k, w)
            assert res.best_size == expect == k ** (w - 1)
            assert res.exhaustive
            rep = verify(res.witness, k)
            assert rep.ok and rep.is_ranked

    def test_box_is_rank_spread(self):
        res = ranked_max_family_size(2, 3)
        assert res.box.limits == (2, 2, 2)  # (w-1)(k-1) = 2

    def test_time_limit_covers_slice_builds(self):
        # (2,6) has 31 rank slices and takes far longer than the limit
        limit = 0.01
        res = ranked_max_family_size(2, 6, SearchLimits(time_limit=limit))
        assert res.truncated and not res.exhaustive
        assert res.elapsed <= limit + 0.3
        (note,) = res.notes
        assert "building the compatibility graph" in note
        assert verify(res.witness, 2).ok and len(res.witness) == res.best_size

    def test_memory_budget_covers_slices(self):
        res = ranked_max_family_size(2, 4, SearchLimits(memory_mb=1e-4))
        assert res.truncated and not res.exhaustive
        assert res.best_size == 0
        (note,) = res.notes
        assert "largest rank slice of box [0,3]^4" in note
        assert "over the 0.0001 MiB budget" in note
        with pytest.raises(BoxTooLargeError):
            build_compatibility_graph(2, res.box, memory_mb=1e-4, rank=6)


class TestCrossDigraph:
    def test_no_short_edge_when_side_coordinate_rises(self):
        f = Family(3, [(0, 1, 5), (1, 0, 4)])
        d = build_cross_digraph(f, 2, 3)
        assert d.short_edges == frozenset()
        assert d.long_edges == frozenset()

    def test_short_edge(self):
        f = Family(3, [(0, 0, 5), (1, 0, 4)])
        d = build_cross_digraph(f, 2, 3)
        assert d.short_edges == frozenset({((0, 0, 5), (1, 0, 4))})
        assert d.long_edges == frozenset()

    def test_long_edge(self):
        f = Family(3, [(3, 0, 0), (0, 0, 1)])
        d = build_cross_digraph(f, 2, 3)
        # B[3]-A[3] = 1 = k-1 and A[1]-B[1] = 3 >= k
        assert ((3, 0, 0), (0, 0, 1)) in d.long_edges
        assert ((0, 0, 1), (3, 0, 0)) in d.short_edges
        succ = d.successors()
        assert succ[(3, 0, 0)] == {(0, 0, 1)}

    def test_preconditions(self):
        crossing = Family(2, [(0, 2), (2, 0)])
        with pytest.raises(ValueError):
            build_cross_digraph(crossing, 2, 1)
        negative = Family(2, [(0, 1), (1, -1)])
        with pytest.raises(ValueError):
            build_cross_digraph(negative, 2, 2)
        f = Family(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            build_cross_digraph(f, 2, 3)  # coord out of range


class TestCompress:
    def test_frozen_shifted_pair(self):
        f = Family(2, [(0, 3), (1, 2)])
        assert compress(f, 2, 2).vectors == ((0, 1), (1, 0))

    def test_fixpoint_identity(self):
        f = Family(2, [(0, 1), (1, 0)])
        assert compress(f, 2, 2) == f

    def test_interval_property_and_invariants(self):
        rng = random.Random(3434)
        for _ in range(60):
            k = rng.randrange(1, 4)
            w = rng.randrange(2, 4)
            f = random_verified_family(rng, k, w, rng.randrange(2, 8))
            if len(f) == 0:
                continue
            coord = rng.randrange(1, w + 1)
            lows = [min(v[i] for v in f) for i in range(w)]
            f = f.translate([-x for x in lows])
            g = compress(f, k, coord)
            assert len(g) == len(f)
            assert verify(g, k).ok
            before = sum(v[coord - 1] for v in f)
            after = sum(v[coord - 1] for v in g)
            assert after <= before
            vals = sorted({v[coord - 1] for v in g})
            assert vals == list(range(len(vals)))  # interval from 0
            assert compress(g, k, coord) == g

    def test_sequential_compression_bounds_all_coordinates(self):
        rng = random.Random(3435)
        for _ in range(30):
            k = rng.randrange(2, 4)
            f = random_verified_family(rng, k, 3, 6)
            if len(f) < 2:
                continue
            lows = [min(v[i] for v in f) for i in range(3)]
            g = f.translate([-x for x in lows])
            for coord in (1, 2, 3):
                g = compress(g, k, coord)
            n = len(g)
            assert verify(g, k).ok
            assert all(0 <= v[i] <= n - 1 for v in g for i in range(3))
