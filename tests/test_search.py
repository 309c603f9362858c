"""Normalization, search boxes, exact search, digraph and compression."""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossvec import (
    BoxTooLargeError,
    Family,
    SearchBox,
    SearchLimits,
    build_compatibility_graph,
    build_cross_digraph,
    compress,
    compression_box,
    exists_family,
    generalized_bounds,
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
        assert b.complete_for == 4
        with pytest.raises(ValueError):
            SearchBox((3, -1))
        with pytest.raises(ValueError):
            SearchBox(())
        # Truncating 2.7 would search [0,2]x[0,3]x[0,3], not the box asked for.
        for limits in ((2.7, 3, 3), (3, 0.5), (float("nan"), 3), (float("inf"),)):
            with pytest.raises(ValueError, match="whole numbers"):
                SearchBox(limits)
        box = SearchBox((3.0, 3, 3))
        assert box.limits == (3, 3, 3) and all(type(x) is int for x in box.limits)
        assert box == SearchBox((3, 3, 3)) and str(box) == "[0,3]^3"

    def test_fractional_target(self):
        # A fractional target names the target, not a box limit m - 1.
        for call in (lambda: exists_family(2, 3, 4.5), lambda: compression_box(2, 3, 4.5)):
            with pytest.raises(ValueError, match="target size must be a whole number, got 4.5"):
                call()
        res = exists_family(2, 3, 4.0)
        assert res.target == 4 and type(res.target) is int and res.found
        box = compression_box(2, 3, 4.0)
        assert box == SearchBox((3, 3, 3)) and type(box.limits[0]) is int

    def test_compression_box(self):
        b = compression_box(3, 3, 10)
        assert b.limits == (9, 9, 9)
        assert b.complete_for == 10
        b = compression_box((1, 2, 3), 3, 4)
        assert b.limits == (3, 3, 3)
        assert b.complete_for == 4
        assert b == SearchBox((3, 3, 3))
        # A box is its limits: an explicit box is the same box.
        assert SearchBox((9, 9, 9)) == compression_box(3, 3, 10)


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
            ((2, 2), (2, 2), 5),  # an empty rank slice
            ((3,), (5,), None),  # w = 1
            ((2,), (4,), 3),
            ((2, 2, 2), (0, 0, 0), None),  # a single point
            ((3, 1, 2), (5, 2, 4), 5),  # per-coordinate ks, non-cubical slice
        ):
            g = build_compatibility_graph(ks, SearchBox(limits), rank=rank)
            # Vertices come in decreasing lexicographic order.
            pts = [p for p in box_points(limits) if rank is None or sum(p) == rank][::-1]
            assert g.vectors == tuple(pts)
            assert len(g.adj) == g.n == len(pts)
            for c, top in enumerate(limits):
                for x in range(top + 1):
                    at = sum(1 << i for i, p in enumerate(pts) if p[c] == x)
                    assert g.levels[c][x] == at
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
        assert max_clique(g.adj).size == 2

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
        assert miss.exhaustive  # [0,2]^2 is complete for m=3: f(2,2) < 3
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
        # [0,1]^2 holds a family of 2 but is complete only for size 2, so
        # it cannot rule out 3 beyond the box.
        res = exists_family(2, 2, 3, box=SearchBox((1, 1)))
        assert not res.found
        assert not res.exhaustive
        assert not res.truncated

    def test_explicit_box_certifies_by_its_limits(self):
        # A given box that contains [0, m-1]^w is the compression box's
        # equal: the same search, the same global verdict.
        res = exists_family(3, 3, 10, box=SearchBox((9, 9, 9)))
        assert res.found is False and res.exhaustive and not res.truncated
        assert res.best_size == 9 and res.nodes == 5_575
        # [0,2]^2 holds f(2,2) = 2 and is complete for size 3, so its
        # maximum is global and refutes every larger target.
        res = exists_family(2, 2, 5, box=SearchBox((2, 2)))
        assert res.found is False and res.exhaustive and not res.truncated
        assert res.best_size == 2
        assert "refutation is global, as the box contains [0,2]^2" in res.notes[0]

    def test_width_zero_is_refused(self):
        for call in (
            lambda: exists_family(2, 0, 3),
            lambda: max_family_size(2, 0),
            lambda: ranked_max_family_size(2, 0),
        ):
            with pytest.raises(ValueError, match="w must be >= 1"):
                call()

    def test_node_limit_truncates(self):
        res = exists_family(2, 2, 3, limits=SearchLimits(node_limit=1))
        assert res.truncated and not res.exhaustive and not res.found

    @pytest.mark.parametrize(
        "caps,workers",
        [
            ({"memory_mb": float("nan")}, 1),
            ({"memory_mb": 0}, 1),
            ({"node_limit": -3}, 1),
            ({"time_limit": -1.0}, 1),
            ({"time_limit": float("nan")}, 1),
            ({}, 0),
            ({}, -2),
            ({"node_limit": 2.5}, 1),
            ({"node_limit": float("inf")}, 1),
        ],
    )
    def test_bad_limits_raise(self, caps, workers):
        # Each of these used to pass silently: a NaN budget switched the
        # memory check off, a negative node limit truncated at 0 nodes,
        # a fractional one let the count pass it, and fewer than one
        # worker ran serially.
        with pytest.raises(ValueError):
            exists_family(2, 3, 5, limits=SearchLimits(**caps), workers=workers)
        with pytest.raises(ValueError):
            ranked_max_family_size(2, 3, SearchLimits(**caps), workers=workers)

    def test_node_limit_is_one_budget_for_the_run(self):
        # The refused node is not counted, and workers share the budget.
        # An integral float such as 1e3 is the int budget 1000.
        box = compression_box(3, 3, 10)
        for node_limit in (1000, 1e3):
            limits = SearchLimits(node_limit=node_limit)
            assert type(limits.node_limit) is int
            for workers in (1, 2):
                res = exists_family(3, 3, 10, box=box, limits=limits, workers=workers)
                assert res.truncated and not res.exhaustive
                assert res.nodes == 1000

    def test_box_too_large_becomes_truncated_result(self):
        res = max_family_in_box(
            2, SearchBox((99, 99)), limits=SearchLimits(memory_mb=0.1)
        )
        assert res.truncated and not res.exhaustive
        assert res.best_size == 0
        assert any("box" in note for note in res.notes)

    def test_memory_budget_charges_complement_rows(self):
        # The clique engine's complement rows are as large as the
        # adjacency, so a budget that fits the adjacency and the
        # coordinate masks but not the complement rows too truncates.
        # Each coordinate with limit L takes L + 2 prefix masks and
        # L + 1 level bit sets.
        box = SearchBox((20, 20))
        n = box.size
        masks = 2 * (2 * 20 + 3) * n / 8
        adjacency_only = (n * n / 8 + masks) / 2**20
        full = (2 * n * n / 8 + masks) / 2**20
        budget = (adjacency_only + full) / 2
        res = max_family_in_box(2, box, limits=SearchLimits(memory_mb=budget))
        assert res.truncated and not res.exhaustive
        assert res.best_size == 0
        (note,) = res.notes
        assert "adjacency, its complement rows and coordinate masks" in note
        with pytest.raises(BoxTooLargeError):
            build_compatibility_graph(2, box, memory_mb=budget)
        res = max_family_in_box(2, box, limits=SearchLimits(memory_mb=full * 1.01))
        assert not res.truncated and res.best_size == 2

    def test_memory_budget_charges_each_worker(self):
        # Every worker holds its own adjacency and complement rows next
        # to the caller's adjacency: (1 + 2W) n^2 / 8 bytes for W workers.
        box = SearchBox((20, 20))
        n = box.size
        masks = 2 * (2 * 20 + 3) * n / 8
        one_worker = (2 * n * n / 8 + masks) / 2**20
        two_workers = (5 * n * n / 8 + masks) / 2**20
        limits = SearchLimits(memory_mb=(one_worker + two_workers) / 2)
        res = max_family_in_box(2, box, limits=limits, workers=2)
        assert res.truncated and not res.exhaustive and res.best_size == 0
        (note,) = res.notes
        assert "for each of 2 workers" in note
        res = max_family_in_box(2, box, limits=limits, workers=1)
        assert not res.truncated and res.best_size == 2
        res = max_family_in_box(2, box, SearchLimits(memory_mb=two_workers * 1.01), 2)
        assert not res.truncated and res.best_size == 2

    def test_time_limit_covers_graph_build(self):
        # the compression box [0,27]^3 for target 28 takes far longer
        # than the limit to build
        limit = 0.05
        res = exists_family((2, 3, 3), 3, 28, limits=SearchLimits(time_limit=limit))
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
        # Without covers this refutation takes 399,547 nodes, with zero
        # covers alone 76,111; level covers and the count cut take 37,266,
        # forced vertices 34,641, the one-pass support filter 15,577, the
        # sequential one 13,547, root stabilizers 11,893, and the capacity
        # cut 5,575.
        res = exists_family(3, 3, 10, box=compression_box(3, 3, 10))
        assert res.found is False and res.exhaustive and not res.truncated
        assert res.best_size == 9
        assert res.nodes == 5_575

    def test_default_box_is_compression_box(self):
        # With no box given, target 10 searches the compression box
        # [0,9]^3; the result carries its in-box maximum.
        res = exists_family(3, 3, 10)
        assert res.found is False and res.exhaustive and not res.truncated
        assert res.best_size == 9 and len(res.witness) == 9
        assert verify(res.witness, 3).ok
        assert str(res.box) == "[0,9]^3"
        assert res.box.complete_for == 10
        assert res.nodes == 5_575

    def test_failing_witness_check_raises(self, monkeypatch):
        bad = SimpleNamespace(ok=False)
        monkeypatch.setattr(search_mod, "verify", lambda *a, **kw: bad)
        with pytest.raises(RuntimeError):
            exists_family(2, 2, 2)
        with pytest.raises(RuntimeError):
            max_family_in_box(2, SearchBox((2, 2)))
        with pytest.raises(RuntimeError):
            ranked_max_family_size(2, 3)

    def test_ranked_witness_check_requires_constant_rank(self, monkeypatch):
        # A verifying witness of several ranks fails a ranked search.
        mixed = SimpleNamespace(ok=True, is_ranked=False)
        monkeypatch.setattr(search_mod, "verify", lambda *a, **kw: mixed)
        with pytest.raises(RuntimeError, match="constant-rank"):
            ranked_max_family_size(2, 3)
        assert exists_family(2, 2, 2).found


class TestMaxFamily:
    def test_known_small_values(self):
        for k, w, expect in ((2, 2, 2), (3, 2, 3), (2, 3, 4)):
            res = max_family_size(k, w)
            assert res.best_size == expect
            assert res.exhaustive and not res.truncated
            assert verify(res.witness, k).ok
            assert len(res.witness) == expect

    def test_unsorted_thresholds(self):
        # The seed puts each threshold back on its own coordinate.
        res = max_family_size((2, 1), 2)
        assert res.best_size == 2 and res.exhaustive
        res = max_family_size((3, 2, 3), 3)
        assert res.best_size == 9 and res.exhaustive and not res.truncated
        assert len(res.witness) == 9 and verify(res.witness, (3, 2, 3)).ok
        assert str(res.box) == "[0,9]^3"

    def test_uniform_threshold_searches_compression_box(self):
        res = max_family_size(3, 3)
        assert res.best_size == 9
        assert res.exhaustive and not res.truncated
        assert str(res.box) == "[0,9]^3"
        assert res.box.complete_for == 10
        assert verify(res.witness, 3).ok and len(res.witness) == 9

    def test_box_results_match_brute_force(self):
        for seq, limits in (
            ((2, 2), (2, 2)),
            ((2, 2), (4, 4)),
            ((2, 2), (3, 2)),
            ((1, 2), (2, 2)),
            ((2, 2, 2), (2, 2, 2)),
            ((2, 2, 2), (3, 3, 3)),
            # Classes that prune roots (module docstring, "Symmetry
            # pruning"): one that leaves out coordinate 0, a uniform k on
            # a box with two equal limits, and non-contiguous classes;
            # and a cubical box whose unequal thresholds allow none.
            ((2, 3, 3), (3, 2, 2)),
            ((2, 2, 2), (3, 2, 2)),
            ((3, 2, 3), (3, 3, 3)),
            ((3, 2, 3, 2), (1, 2, 1, 2)),
            ((1, 2, 1, 2), (2, 2, 2, 2)),
            ((1, 3, 2), (3, 3, 3)),
        ):
            expect, _ = brute_max_family(seq, limits)
            res = max_family_in_box(seq, SearchBox(limits))
            assert res.best_size == expect
            assert not res.truncated
            assert verify(res.witness, seq).ok
            assert all(
                0 <= v[i] <= limits[i] for v in res.witness for i in range(len(seq))
            )

    def test_roots_nondecreasing_within_classes(self):
        # In class order, coordinates 0 and 1 share threshold 2 and limit
        # 2, coordinates 2 and 3 threshold 3 and limit 1.  A root has
        # v[0] = 0, which already gives v[0] <= v[1], and v[2] <= v[3].
        graph = build_compatibility_graph((2, 2, 3, 3), SearchBox((2, 2, 1, 1)))
        roots = [graph.vectors[i] for i in search_mod._RootStabilizer(graph).roots()]
        assert roots == [
            v for v in box_points((2, 2, 1, 1)) if v[0] == 0 and v[2] <= v[3]
        ]
        # The same classes out of order have no link: only v[0] = 0 holds.
        graph = build_compatibility_graph((3, 2, 3, 2), SearchBox((1, 2, 1, 2)))
        roots = [graph.vectors[i] for i in search_mod._RootStabilizer(graph).roots()]
        assert roots == [v for v in box_points((1, 2, 1, 2)) if v[0] == 0]
        # Uniform thresholds on a cubical box: the nondecreasing tuples.
        graph = build_compatibility_graph(2, SearchBox((2, 2, 2)))
        roots = [graph.vectors[i] for i in search_mod._RootStabilizer(graph).roots()]
        assert roots == [
            v for v in box_points((2, 2, 2)) if v[0] == 0 and v == tuple(sorted(v))
        ]

    def test_in_box_verdict(self):
        # A box complete for size 5 that holds no family of 5 certifies
        # its maximum 4 globally; one complete only for size 4 cannot.
        res = max_family_in_box(2, compression_box(2, 3, 5))
        assert res.best_size == 4 and res.exhaustive and not res.truncated
        assert res.notes == ("in-box maximum for [0,4]^3 is 4",)
        res = max_family_in_box(2, compression_box(2, 3, 4))
        assert res.best_size == 4 and not res.exhaustive and not res.truncated
        assert verify(res.witness, 2).ok and len(res.witness) == 4
        # The verdict follows the least limit alone: a given [0,4]^3 is
        # the compression box for 5, and a limit of 2 leaves a box
        # complete only for 3.
        res = max_family_in_box(2, SearchBox((4, 4, 4)))
        assert res.best_size == 4 and res.exhaustive and not res.truncated
        res = max_family_in_box(2, SearchBox((4, 4, 2)))
        assert res.best_size == 4 and not res.exhaustive and not res.truncated

    def test_in_box_node_count_w4(self):
        # The node count pins every branching decision of the engine.
        res = max_family_in_box(2, SearchBox((4,) * 4))
        assert res.best_size == 8 and not res.truncated
        assert res.nodes == 7_331

    def test_workers_deterministic(self):
        one = max_family_size(2, 3, workers=1)
        two = max_family_size(2, 3, workers=2)
        assert one.best_size == two.best_size == 4
        assert one.witness == two.witness


class TestWitnessPins:
    """Witnesses of searches whose every branching decision is pinned.

    A change of vertex order or engine that keeps the node counts must
    also keep these.
    """

    F33_9 = [
        (0, 0, 4), (0, 1, 3), (0, 2, 2), (1, 1, 2), (1, 2, 1),
        (2, 1, 1), (2, 2, 0), (3, 0, 3), (4, 0, 2),
    ]

    def test_f33_found(self):
        res = exists_family(3, 3, 9, box=compression_box(3, 3, 9))
        assert res.found and list(res.witness) == self.F33_9

    def test_f33_refuted_on_two_workers(self):
        res = exists_family(3, 3, 10, box=compression_box(3, 3, 10), workers=2)
        assert res.found is False and res.exhaustive and res.best_size == 9
        assert list(res.witness) == self.F33_9

    def test_in_box_w4(self):
        res = max_family_in_box(2, SearchBox((4,) * 4))
        assert list(res.witness) == [
            (0, 0, 0, 3), (0, 0, 1, 2), (0, 1, 0, 2), (0, 1, 1, 1),
            (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0), (2, 0, 0, 2),
        ]

    def test_ranked_3_4(self):
        res = ranked_max_family_size(3, 4)
        assert res.best_size == 27
        # The rank-6 points whose first three coordinates lie in 0..2.
        assert list(res.witness) == sorted(
            (a, b, c, 6 - a - b - c) for a in range(3) for b in range(3) for c in range(3)
        )


def zero_cover_max(k, limits, rank=None):
    """In-box (or rank-slice) maximum from the engine with zero covers
    only, all roots."""
    graph = build_compatibility_graph(k, SearchBox(limits), rank=rank)
    covers = [
        sum(1 << i for i, v in enumerate(graph.vectors) if v[j] == 0)
        for j in range(len(limits))
    ]
    return max_clique(graph.adj, covers=covers).size


# Per-coordinate thresholds and the largest box side their oracle
# comparison runs up to.
SMALL_BOX_SIDES = {(1, 2): 6, (2, 3): 6, (1, 2, 3): 4, (2, 2, 3): 4, (1, 1, 2, 2): 2}


class TestLevelCovers:
    @pytest.mark.parametrize(
        "ks",
        (2, 3, *SMALL_BOX_SIDES),
        ids=lambda ks: "-".join(map(str, ks)) if isinstance(ks, tuple) else str(ks),
    )
    def test_small_boxes_match_zero_covers(self, ks):
        # Level covers, and for a target m the clip to [0, m-1]^w, give
        # the zero-cover answers on every small box: the in-box maximum,
        # and every existence target with its in-box maximum.  A uniform
        # k runs on every box up to [0,5]^2, [0,4]^3 and [0,2]^4.
        if isinstance(ks, tuple):
            shapes = ((len(ks), SMALL_BOX_SIDES[ks]),)
        else:
            shapes = ((2, 5), (3, 4), (4, 2))
        boxes = 0
        for w, hi in shapes:
            for limits in itertools.product(range(hi + 1), repeat=w):
                want = zero_cover_max(ks, limits)
                box = SearchBox(limits)
                res = max_family_in_box(ks, box)
                assert res.best_size == want and not res.truncated, limits
                for m in range(1, want + 2):
                    hit = exists_family(ks, w, m, box=box)
                    assert hit.found is (m <= want) and not hit.truncated, (limits, m)
                    assert hit.box == box and verify(hit.witness, ks).ok
                    assert all(0 <= v[i] <= limits[i] for v in hit.witness for i in range(w))
                    if not hit.found:
                        assert hit.best_size == want, (limits, m)
                boxes += 1
        assert boxes == sum((hi + 1) ** w for w, hi in shapes)

    def test_thresholds_get_level_covers_ranked_keeps_zero_covers(self):
        # Per-coordinate thresholds are clipped and given level covers
        # like a uniform one: target 6 searches [0,5]^3.  Ranked searches
        # keep zero covers.
        res = exists_family((2, 3, 3), 3, 6)
        assert res.found and str(res.box) == "[0,5]^3"
        assert res.nodes == 14
        assert ranked_max_family_size(3, 4).nodes == 266


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

    @pytest.mark.parametrize("k,w", [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4)])
    def test_upper_slices_mirror_into_lower(self, k, w):
        # Every slice's zero-cover maximum over all roots: no slice above
        # half the rank spread beats the lower half, and the search, which
        # visits only the lower half, returns the maximum over all slices.
        side = (w - 1) * (k - 1)
        half = w * side // 2
        sizes = [zero_cover_max(k, (side,) * w, r) for r in range(w * side + 1)]
        assert max(sizes[half + 1 :], default=0) <= max(sizes[: half + 1])
        res = ranked_max_family_size(k, w)
        assert res.best_size == max(sizes) == k ** (w - 1) and res.exhaustive

    def test_nodes_do_not_depend_on_workers(self):
        # The seed is never beaten, so every root refutes the same bound
        # whatever the schedule.  Unseeded, (2,6) took 23,156 nodes on one
        # worker and 23,253 on two.
        for (k, w), nodes in (((3, 4), 266), ((2, 5), 87)):
            for workers in (1, 2):
                res = ranked_max_family_size(k, w, workers=workers)
                assert res.nodes == nodes and res.exhaustive, (k, w, workers)

    def test_time_limit_covers_slice_builds(self):
        # (2,6) searches its rank slices 0..15 of 0..30 and takes far
        # longer than the limit.
        limit = 0.01
        res = ranked_max_family_size(2, 6, SearchLimits(time_limit=limit))
        assert res.truncated and not res.exhaustive
        assert res.elapsed <= limit + 0.3
        (note,) = res.notes
        assert "building the compatibility graph" in note
        assert verify(res.witness, 2).ok and len(res.witness) == res.best_size

    def test_memory_budget_covers_slices(self):
        # A refused search still reports the seed, the product family.
        res = ranked_max_family_size(2, 4, SearchLimits(memory_mb=1e-4))
        assert res.truncated and not res.exhaustive
        assert res.best_size == 8 and len(res.witness) == 8
        rep = verify(res.witness, 2)
        assert rep.ok and rep.is_ranked
        (note,) = res.notes
        assert "largest rank slice of box [0,3]^4" in note
        assert "over the 0.0001 MiB budget" in note
        with pytest.raises(BoxTooLargeError):
            build_compatibility_graph(2, res.box, memory_mb=1e-4, rank=6)


def stabilizer_reference(graph, root):
    """The root's core and orbits straight from the definition: u's
    blocks are the maximal runs of adjacent coordinates that share
    threshold, limit and u's value, H permutes each block, the core is
    the candidates whose every H-image is lexicographically above u, and
    an orbit is the bit set of a vertex's H-images."""
    u = graph.vectors[root]
    keys = [(k, x, y) for k, x, y in zip(graph.ks, graph.box.limits, u)]
    blocks = [list(run) for _, run in itertools.groupby(range(len(u)), keys.__getitem__)]
    perms = []
    for images in itertools.product(*map(itertools.permutations, blocks)):
        perm = list(range(len(u)))
        for block, image in zip(blocks, images):
            for c, d in zip(block, image):
                perm[c] = d
        perms.append(perm)
    if len(perms) == 1:
        return 1, None, None
    index = {v: i for i, v in enumerate(graph.vectors)}
    cand = graph.adj[root] & ((1 << root) - 1)
    core, orbits = 0, {}
    for v in range(root):
        if cand >> v & 1:
            x = graph.vectors[v]
            images = {tuple(x[d] for d in perm) for perm in perms}
            core |= all(image > u for image in images) << v
            orbits[v] = sum(1 << index[image] for image in images)
    return len(perms), core, orbits


def driver_graphs():
    """(ks, graph, levels) for small boxes and, for a uniform k, their
    rank slices: the graphs the search driver builds."""
    boxes = {
        1: [(4,)],
        2: [(3, 3), (4, 3), (4, 4)],
        3: [(2, 2, 2), (3, 3, 2), (2, 3, 3), (3, 3, 3)],
        4: [(1, 1, 1, 1), (1, 2, 2, 2), (2, 2, 1, 1), (2, 2, 2, 2), (3, 3, 2, 2)],
    }
    for w, shapes in boxes.items():
        for ks in itertools.product((1, 2, 3), repeat=w):
            for limits in shapes:
                box = SearchBox(limits)
                yield ks, build_compatibility_graph(ks, box), True
                if len(set(ks)) == 1:
                    for rank in range(sum(limits) // 2 + 1):
                        yield ks, build_compatibility_graph(ks, box, rank=rank), False


class TestRootStabilizers:
    def test_hook_matches_definition_and_per_root_core_search(self):
        # For every root of every small driver graph: the hook's core and
        # orbits are those of the definition, and the root's search with
        # the hook, which removes each root branch's orbit, finds the
        # size of the plain search over the same core.
        checks = nontrivial = 0
        for ks, graph, levels in driver_graphs():
            covers, requires, classes = search_mod._covers(graph, levels)
            hook = search_mod._RootStabilizer(graph)
            for root in hook.roots():
                cand = graph.adj[root] & ((1 << root) - 1)
                order, core, orbits = stabilizer_reference(graph, root)
                found = hook(root, cand)
                if found is None:
                    assert order == 1, (ks, graph.box, graph.vectors[root])
                    continue
                nontrivial += 1
                got_core, orbit = found
                assert got_core == core, (ks, graph.box, graph.vectors[root])
                for v, bits in orbits.items():
                    assert orbit(v) == bits, (ks, graph.box, graph.vectors[root], v)

                def core_only(i, c):
                    return found[0], lambda v: 1 << v

                args = (graph.adj, [root], 0, None, None, None, covers, requires)
                res = max_clique(*args, symmetry=hook, classes=classes)
                plain = max_clique(*args, symmetry=core_only, classes=classes)
                assert res.size == plain.size, (ks, graph.box, graph.vectors[root])
                assert max(res.members, default=root) == root
                assert not set(res.members[:-1]) - {v for v in range(root) if core >> v & 1}
                checks += 1
        assert nontrivial == checks > 2000, checks


class TestLevelCapacities:
    """Each coordinate's levels form one class of the clique engine,
    capped by `generalized_bounds` of the other thresholds (module
    docstring, "Level capacities")."""

    def test_cap_source_bounds_brute_force(self):
        # The caps a box search reads at widths 2 and 3 are the bounds of
        # widths 1 and 2, exact there, and the uniform width-3 bound is
        # the cap of (2,2,2,x).  [0,3]^v holds a copy of every
        # family of at most 4 vectors, so it meets each bound.
        for ks in [
            *((k,) for k in (1, 2, 3)),
            *itertools.product((1, 2, 3), repeat=2),
            (2, 2, 2),
        ]:
            upper = generalized_bounds(ks).upper
            best, _ = brute_max_family(ks, (3,) * len(ks))
            assert upper >= best, ks
            if len(ks) <= 2:
                assert upper == best, ks

    def test_level_caps_hold_on_every_level(self):
        # On the small search graphs each coordinate's levels are one class,
        # its cap is that of the other thresholds (1 at width 1), and no
        # level holds a clique larger than the cap; many reach it.
        checked = reached = 0
        for ks, graph, levels in driver_graphs():
            if not levels or len(ks) > 3:
                continue
            covers, _, classes = search_mod._covers(graph, True)
            first = 0
            assert len(classes) == len(ks)
            for c, (bits, cap) in enumerate(classes):
                others = ks[:c] + ks[c + 1 :]
                assert cap == (generalized_bounds(others).upper if others else 1)
                count = len(graph.levels[c])
                assert bits == ((1 << count) - 1) << first
                for mask in covers[first : first + count]:
                    rows = [row & mask for row in graph.adj]
                    roots = [v for v in range(graph.n) if mask >> v & 1]
                    size = max_clique(rows, roots).size
                    assert size <= cap, (ks, graph.box, c)
                    checked += 1
                    reached += size == cap
                first += count
        assert checked > 500 and reached > 200, (checked, reached)


def permuted(ks, limits):
    """Every distinct reordering of the coordinates, each threshold
    moving with its limit: (ks, limits) pairs."""
    for pairs in sorted(set(itertools.permutations(zip(ks, limits)))):
        yield tuple(k for k, _ in pairs), tuple(x for _, x in pairs)


class TestCoordinateOrder:
    """The driver searches one canonical coordinate order (module
    docstring, "Coordinate order"), so every reordering of an instance
    costs the same nodes and reaches the same verdict."""

    def test_every_order_matches_the_reference(self):
        # Every ks in {1,2,3}^w for w <= 3, and some at w = 4, on small
        # boxes, cubical and not: each reordering reports the same size,
        # verdict and node count, its witness verifies for its own ks in
        # its own box, and the size is the plain engine's on its graph,
        # every vertex a root and no symmetry hook.
        shapes = {
            1: [(3,)],
            2: [(2, 2), (1, 3), (3, 2)],
            3: [(2, 2, 2), (1, 2, 3), (2, 2, 1), (3, 1, 1)],
        }
        cases = [
            (ks, limits)
            for w, boxes in shapes.items()
            for ks in itertools.product((1, 2, 3), repeat=w)
            for limits in boxes
        ]
        cases += [
            (ks, limits)
            for ks in ((2, 2, 2, 2), (2, 3, 2, 3), (1, 2, 2, 3), (3, 2, 2, 3))
            for limits in ((1, 1, 1, 1), (1, 2, 1, 2), (2, 1, 1, 2), (2, 1, 2, 1))
        ]
        reordered = 0
        for ks, limits in cases:
            outcomes = set()
            for pks, plimits in permuted(ks, limits):
                box, w = SearchBox(plimits), len(pks)
                want = max_clique(build_compatibility_graph(pks, box).adj).size
                got = []
                for res in (
                    max_family_in_box(pks, box),
                    exists_family(pks, w, want, box=box),
                    exists_family(pks, w, want + 1, box=box),
                ):
                    assert res.box == box and len(res.witness) == res.best_size
                    assert verify(res.witness, pks).ok, (pks, plimits)
                    assert all(0 <= v[i] <= plimits[i] for v in res.witness for i in range(w))
                    got.append((res.best_size, res.exhaustive, res.truncated, res.nodes))
                assert got[0][0] == want and got[1][0] >= want and got[2][0] == want, (
                    pks, plimits, got, want,
                )
                outcomes.add(tuple(got))
                reordered += 1
            assert len(outcomes) == 1, (ks, limits, outcomes)
        assert reordered == 772, reordered

    @pytest.mark.parametrize(
        "ks,size,nodes",
        [
            ((2, 3, 2), 6, 420),
            ((3, 3, 2), 9, 1903),
            ((2, 3, 4), 12, 23_453),
            ((4, 3, 3), 12, 115_978),
        ],
        ids=("2,3,2", "3,3,2", "2,3,4", "4,3,3"),
    )
    def test_every_order_certifies_like_the_sorted_tuple(self, ks, size, nodes):
        # Before one coordinate order, (3,2,2) took 699 nodes for the 540
        # of (2,2,3), and (4,3,3) 812,548 for the 416,487 of (3,3,4); the
        # capacity cut then took them to 420 and 115,978.
        for pks in sorted(set(itertools.permutations(ks))):
            res = max_family_size(pks, 3)
            assert (res.best_size, res.exhaustive, res.nodes) == (size, True, nodes), pks
            assert verify(res.witness, pks).ok and len(res.witness) == size

    def test_texts_name_the_callers_box(self):
        # (2,3,2) on [0,3]x[0,6]x[0,5] is searched as [0,5]x[0,3]x[0,6].
        box = SearchBox((3, 6, 5))
        for res in (
            exists_family((2, 3, 2), 3, 10, box=box, limits=SearchLimits(time_limit=0)),
            max_family_in_box((2, 3, 2), box, SearchLimits(time_limit=0)),
        ):
            assert res.truncated and res.box == box
            (note,) = res.notes
            assert "building the compatibility graph of the box [0,3]x[0,6]x[0,5]" in note
        res = exists_family((2, 3, 2), 3, 10, box=box, limits=SearchLimits(memory_mb=1e-4))
        (note,) = res.notes
        assert res.truncated and res.box == box
        assert note.startswith("box [0,3]x[0,6]x[0,5] has 168 lattice points")
        res = max_family_in_box((2, 3, 2), box, SearchLimits(node_limit=0))
        assert res.notes == ("truncated; 1 is only a lower bound for box [0,3]x[0,6]x[0,5]",)


class TestAudit:
    """Certified refutations re-run under a second configuration: the
    incumbent seeded at m - 1, every vertex a root, no symmetry hook, no
    classes (so no count or capacity cut), and the vertex order reversed.
    Each stays refuted."""

    @pytest.mark.parametrize(
        "ks,m,nodes",
        [((3, 3, 3), 10, 26_162), ((2, 2, 3), 7, 805), ((2, 3, 3), 10, 4621)],
        ids=("3,3,3", "2,2,3", "2,3,3"),
    )
    def test_refutation_holds_reversed_without_hooks(self, ks, m, nodes):
        graph = build_compatibility_graph(ks, compression_box(ks, 3, m))
        covers, requires, _ = search_mod._covers(graph, True)
        n = graph.n

        def mirror(bits):  # vertex v -> n - 1 - v
            return int(f"{bits:0{n}b}"[::-1], 2)

        res = max_clique(
            [mirror(row) for row in reversed(graph.adj)],
            initial=m - 1,
            covers=[mirror(mask) for mask in covers],
            requires=requires[::-1],
        )
        assert (res.size, res.members, res.truncated, res.nodes) == (m - 1, (), False, nodes)


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

    def test_per_coordinate_long_edge(self):
        # Under ks = (2,3) a long edge on coordinate 2 climbs ks[2] - 1 = 2
        # levels while A beats B by ks[1] = 2 on coordinate 1; neither
        # uniform threshold 2 nor 3 gives it, and at 2 the pair crosses.
        f = Family(2, [(2, 0), (0, 2)])
        d = build_cross_digraph(f, (2, 3), 2)
        assert d.ks == (2, 3)
        assert d.long_edges == frozenset({((2, 0), (0, 2))})
        assert d.short_edges == frozenset()
        assert not verify(f, 2).ok
        assert compress(f, (2, 3), 2).vectors == ((0, 1), (2, 0))

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

    def test_per_coordinate_long_edge_moves_its_target(self):
        # No vector is at level 0 on coordinate 3, so the least one moves
        # first and takes along its short-edge successor (5,4,2) and that
        # one's long-edge successor (5,2,4): B[3] - A[3] = 2 = ks[3] - 1
        # and A[2] - B[2] = 2 >= ks[2].  Left behind, (5,2,4) would
        # (2,2,3)-cross (5,4,1).
        f = Family(3, [(5, 4, 2), (0, 3, 3), (5, 2, 4)])
        ks = (2, 2, 3)
        assert build_cross_digraph(f, ks, 3).long_edges == frozenset(
            {((5, 4, 2), (5, 2, 4))}
        )
        g = compress(f, ks, 3)
        assert g.vectors == ((0, 3, 1), (5, 2, 1), (5, 4, 0))
        assert verify(g, ks).ok

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_per_coordinate_compression_property(self, data):
        # Compressing each coordinate in turn keeps size and
        # verification, makes that coordinate gap-free, keeps the ones
        # done before gap-free, and is idempotent.
        w = data.draw(st.integers(2, 4), label="w")
        ks = data.draw(st.tuples(*[st.integers(1, 4)] * w), label="ks")
        n = data.draw(st.integers(1, 12), label="n")
        span = data.draw(st.integers(1, 12), label="span")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        f = random_verified_family(random.Random(seed), ks, w, n, span)
        lows = [min(v[i] for v in f) for i in range(w)]
        g = f.translate([-x for x in lows])
        for coord in range(1, w + 1):
            g = compress(g, ks, coord)
            assert len(g) == len(f) and verify(g, ks).ok
            for i in range(coord):
                vals = sorted({v[i] for v in g})
                assert vals == list(range(len(vals))), (coord, i)
            assert compress(g, ks, coord) == g

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
