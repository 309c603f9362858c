"""Posets, width with witnesses, the lattice of maximum antichains."""

import io
import random
import sys

import pytest

from crossvec import (
    Family,
    ParseError,
    Poset,
    chain,
    contains_k_plus_k,
    disjoint_chains,
    interval_order,
    is_lattice,
    lattice_width,
    lattice_width_witness,
    load_poset,
    max_antichains,
    poset_from_text,
    poset_to_text,
    random_interval_order,
    reduce_to_vectors,
    save_poset,
    verify,
    width,
)

from helpers import brute_max_antichains, random_poset


class TestPosetConstruction:
    def test_closure(self):
        p = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")
        assert p.leq("a", "a")
        assert not p.leq("c", "a")
        assert p.less("a", "b") and not p.less("a", "a")
        assert p.covers() == (("a", "b"), ("b", "c"))

    def test_errors(self):
        with pytest.raises(ValueError):
            Poset(["a", "a"])
        with pytest.raises(ValueError):
            Poset(["a"], [("a", "b")])
        with pytest.raises(ValueError):
            Poset(["a"], [("a", "a")])

    def test_cycle_diagnostic(self):
        with pytest.raises(ValueError) as ei:
            Poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
        assert "cycle" in str(ei.value)
        assert "<" in str(ei.value)  # names a concrete path

    @pytest.mark.parametrize(
        "labels,relations",
        [
            # a 2-cycle
            (["a", "b"], [("a", "b"), ("b", "a")]),
            # a 3-cycle that avoids the first label
            (["x", "a", "b", "c"], [("x", "a"), ("a", "b"), ("b", "c"), ("c", "a")]),
            # a cycle reached only after an acyclic prefix: p lies on no
            # cycle, and the walk from q repeats r before it returns to q
            (
                ["p", "q", "r", "s", "t"],
                [("p", "q"), ("q", "r"), ("r", "s"), ("s", "r"), ("s", "t"), ("t", "q")],
            ),
        ],
    )
    def test_cycle_names_given_relations(self, labels, relations):
        with pytest.raises(ValueError, match="relations contain a cycle: ") as ei:
            Poset(labels, relations)
        path = str(ei.value).split(": ", 1)[1].split(" < ")
        assert len(path) >= 3 and path[0] == path[-1]
        assert len(set(path[:-1])) == len(path) - 1
        assert all(pair in relations for pair in zip(path, path[1:]))

    def test_covers_and_comparability_match_definitions(self):
        rng = random.Random(4711)
        for _ in range(40):
            p = random_poset(rng, rng.randrange(1, 12), p=rng.uniform(0.05, 0.7))
            labels = p.labels
            expect_covers = tuple(
                (a, b)
                for a in labels
                for b in labels
                if p.less(a, b) and not any(p.less(a, m) and p.less(m, b) for m in labels)
            )
            assert p.covers() == expect_covers
            for i, a in enumerate(labels):
                expect = sum(
                    1 << j for j, b in enumerate(labels) if p.leq(a, b) or p.leq(b, a)
                )
                assert p.comparable_mask(i) == expect

    def test_builders(self):
        c = chain(3)
        assert c.labels == ("c1", "c2", "c3")
        assert c.leq("c1", "c3")
        d = disjoint_chains(2, 2)
        assert d.labels == ("a1", "a2", "b1", "b2")
        assert d.leq("a1", "a2") and not d.leq("a1", "b1")

    def test_interval_order(self):
        p = interval_order([(0, 2), (1, 3), (4, 5)])
        assert p.labels == ("i1", "i2", "i3")
        assert p.less("i1", "i3") and p.less("i2", "i3")
        assert not p.leq("i1", "i2") and not p.leq("i2", "i1")

    def test_random_interval_order_reproducible(self):
        a = random_interval_order(8, seed=7)
        b = random_interval_order(8, seed=7)
        assert poset_to_text(a) == poset_to_text(b)
        assert a.n == 8
        # interval orders never contain two disjoint 2-chains
        assert not contains_k_plus_k(a, 2)[0]


class TestWidth:
    def test_two_plus_two(self):
        w, antichain, chains = width(disjoint_chains(2, 2))
        assert w == 2
        assert len(antichain) == 2
        assert sorted(map(sorted, chains)) == [["a1", "a2"], ["b1", "b2"]]

    def test_chain_width_one(self):
        w, antichain, chains = width(chain(5))
        assert w == 1
        assert len(chains) == 1 and len(chains[0]) == 5

    def test_witnesses_and_oracle_on_random_posets(self):
        rng = random.Random(2025)
        for _ in range(40):
            p = random_poset(rng, rng.randrange(1, 11), p=rng.uniform(0.1, 0.5))
            w, antichain, chains = width(p)
            expect, _ = brute_max_antichains(p)
            assert w == expect
            # antichain witness: right size, pairwise incomparable
            assert len(antichain) == w
            assert all(
                not p.leq(a, b)
                for a in antichain
                for b in antichain
                if a != b
            )
            # chain cover: w chains partitioning the ground set
            assert len(chains) == w
            seen = [x for ch in chains for x in ch]
            assert sorted(seen) == sorted(p.labels)
            for ch in chains:
                assert all(p.leq(a, b) for a, b in zip(ch, ch[1:]))


    def test_long_fence_past_recursion_limit(self):
        # The fence a_i < b_i > a_{i+1} on 2,000 elements has width 1,000,
        # and Kuhn's augmenting paths along it run far deeper than the
        # default recursion limit.
        n = 1000
        labels = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
        relations = [(f"a{i}", f"b{i}") for i in range(n)]
        relations += [(f"a{i + 1}", f"b{i}") for i in range(n - 1)]
        p = Poset(labels, relations)
        assert sys.getrecursionlimit() < 2 * n
        w, antichain, chains = width(p)
        assert w == len(antichain) == len(chains) == n
        leq = p.leq_masks()
        picked = sum(1 << p.index(x) for x in antichain)
        assert all(leq[p.index(x)] & picked == 1 << p.index(x) for x in antichain)
        assert sorted(x for ch in chains for x in ch) == sorted(labels)
        assert all(p.less(a, b) for ch in chains for a, b in zip(ch, ch[1:]))


class TestMaxAntichains:
    def test_two_plus_two_members(self):
        lat = max_antichains(disjoint_chains(2, 2))
        assert lat.members == (
            ("a1", "b1"),
            ("a1", "b2"),
            ("a2", "b1"),
            ("a2", "b2"),
        )
        assert not lat.truncated

    def test_chain_has_singletons(self):
        lat = max_antichains(chain(4))
        assert lat.members == (("c1",), ("c2",), ("c3",), ("c4",))

    def test_all_members_have_width_size(self):
        rng = random.Random(77)
        for _ in range(25):
            p = random_poset(rng, rng.randrange(1, 10))
            w, _, _ = width(p)
            lat = max_antichains(p)
            assert all(len(m) == w for m in lat.members)
            _, all_of_them = brute_max_antichains(p)
            assert {frozenset(m) for m in lat.members} == set(all_of_them)

    def test_order_is_partial_order(self):
        lat = max_antichains(disjoint_chains(2, 3))
        n = len(lat.members)
        for i in range(n):
            assert lat.leq_members(i, i)
            for j in range(n):
                if i != j and lat.leq_members(i, j):
                    assert not lat.leq_members(j, i)
                for k in range(n):
                    if lat.leq_members(i, j) and lat.leq_members(j, k):
                        assert lat.leq_members(i, k)

    def test_cap_truncates_and_width_refuses(self):
        lat = max_antichains(disjoint_chains(3, 3), cap=2)
        assert lat.truncated
        with pytest.raises(ValueError):
            lattice_width(lat)

    @staticmethod
    def _reference_leq(p, members):
        # A <= B iff every element of A lies at or below some element of B.
        return [
            sum(
                1 << j
                for j, b in enumerate(members)
                if all(any(p.leq(x, y) for y in b) for x in a)
            )
            for a in members
        ]

    @staticmethod
    def _indices(p, members):
        return [tuple(p.index(x) for x in m) for m in members]

    def _random_posets(self, count):
        rng = random.Random(4242)
        for t in range(count):
            p = random_poset(rng, rng.randrange(1, 13), rng.uniform(0.05, 0.6))
            if t % 2:
                # Labels in a shuffled order, so that index order is not
                # a linear extension.
                labels = list(p.labels)
                rng.shuffle(labels)
                p = Poset(labels, p.covers())
            yield p

    def test_members_sorted_and_leq_matches_definition(self):
        for p in self._random_posets(200):
            lat = max_antichains(p)
            found = self._indices(p, lat.members)
            assert all(list(m) == sorted(m) for m in found)
            assert found == sorted(found) and len(set(found)) == len(found)
            assert lat.leq == self._reference_leq(p, lat.members)

    def test_empty_poset(self):
        lat = max_antichains(Poset([]))
        assert lat.members == ((),) and lat.leq == [1] and not lat.truncated

    def test_cap_keeps_cap_members_in_order(self):
        checked = 0
        for p in self._random_posets(200):
            full = max_antichains(p)
            if full.size < 3:
                continue
            for cap in (1, full.size - 1):
                lat = max_antichains(p, cap=cap)
                assert lat.truncated and lat.size == cap
                assert set(lat.members) <= set(full.members)
                found = self._indices(p, lat.members)
                assert found == sorted(found)
                assert lat.leq == self._reference_leq(p, lat.members)
            assert not max_antichains(p, cap=full.size).truncated
            checked += 1
        assert checked >= 50

    def test_scale(self):
        # One member for a 200-element interval order of width 100.
        lat = max_antichains(random_interval_order(200, 3))
        assert lat.size == 1 and len(lat.members[0]) == 100 and lat.leq == [1]
        # 2^12 members: the least lies below all of them, the greatest
        # only below itself.
        lat = max_antichains(disjoint_chains(*[2] * 12))
        assert lat.size == 4096 and not lat.truncated
        assert lat.leq[0] == (1 << 4096) - 1 and lat.leq[-1] == 1 << 4095

    def test_wide_antichain_past_recursion_limit(self):
        # 1,200 unrelated elements: one maximum antichain, chosen one
        # element per level of the depth-first enumeration.
        labels = [f"x{i}" for i in range(1200)]
        assert sys.getrecursionlimit() < len(labels)
        lat = max_antichains(Poset(labels))
        assert lat.members == (tuple(labels),) and not lat.truncated
        assert lattice_width(lat) == 1


class TestLatticeWidth:
    def test_grid_lattices(self):
        # the maximum antichains of k+k form a k-by-k grid of width k
        for k in (2, 3, 4):
            lat = max_antichains(disjoint_chains(k, k))
            assert len(lat.members) == k * k
            assert lattice_width(lat) == k
            assert is_lattice(lat)

    def test_boolean_cube(self):
        lat = max_antichains(disjoint_chains(2, 2, 2))
        assert len(lat.members) == 8
        assert lattice_width(lat) == 3
        assert is_lattice(lat)

    def test_witness_is_lattice_antichain(self):
        lat = max_antichains(disjoint_chains(3, 3))
        w, picks = lattice_width_witness(lat)
        assert w == 3 == len(picks)
        idx = {m: i for i, m in enumerate(lat.members)}
        for a in picks:
            for b in picks:
                if a != b:
                    assert not lat.leq_members(idx[a], idx[b])

    def test_interval_orders_give_width_one(self):
        for seed in range(8):
            p = random_interval_order(9, seed=seed)
            assert lattice_width(max_antichains(p)) == 1


class TestContainsKPlusK:
    def test_positive(self):
        found, chains = contains_k_plus_k(disjoint_chains(2, 2), 2)
        assert found
        (c1, c2) = chains
        assert len(c1) == len(c2) == 2
        p = disjoint_chains(2, 2)
        assert all(p.less(a, b) for a, b in zip(c1, c1[1:]))
        assert all(not p.leq(a, b) and not p.leq(b, a) for a in c1 for b in c2)

    def test_negative(self):
        assert not contains_k_plus_k(chain(6), 1)[0]
        assert not contains_k_plus_k(disjoint_chains(3, 3), 4)[0]
        assert contains_k_plus_k(disjoint_chains(3, 3), 3)[0]

    def test_needs_two_long_chains(self):
        p = disjoint_chains(4, 2)
        assert contains_k_plus_k(p, 2)[0]
        assert not contains_k_plus_k(p, 3)[0]


class TestReduceToVectors:
    def test_two_plus_two(self):
        p = disjoint_chains(2, 2)
        _, picks = lattice_width_witness(max_antichains(p))
        f = reduce_to_vectors(p, 2, picks)
        assert f == Family(2, [(1, 2), (2, 1)])
        assert verify(f, 2).ok

    def test_three_plus_three(self):
        p = disjoint_chains(3, 3)
        _, picks = lattice_width_witness(max_antichains(p))
        f = reduce_to_vectors(p, 3, picks)
        assert f == Family(2, [(1, 3), (2, 2), (3, 1)])
        assert verify(f, 3).ok

    def test_violated_precondition_is_loud(self):
        # 3+3 present but k = 2: the reduced family cannot verify
        p = disjoint_chains(3, 3)
        _, picks = lattice_width_witness(max_antichains(p))
        with pytest.raises(ValueError) as ei:
            reduce_to_vectors(p, 2, picks)
        assert "3+3" in str(ei.value)

    def test_rejects_bad_antichain_input(self):
        p = disjoint_chains(2, 2)
        with pytest.raises(ValueError):
            reduce_to_vectors(p, 2, [("a1",)])  # not maximum-size
        # comparable in the antichain order: ('a1','b1') <= ('a2','b1')
        with pytest.raises(ValueError, match="comparable in the maximum-antichain order"):
            reduce_to_vectors(p, 2, [("a1", "b1"), ("a2", "b1")])
        # the same antichain twice is comparable to itself
        with pytest.raises(ValueError, match="comparable in the maximum-antichain order"):
            reduce_to_vectors(p, 2, [("a1", "b2"), ("b2", "a1")])


class TestTextFormat:
    def test_round_trip(self):
        p = disjoint_chains(2, 3)
        text = poset_to_text(p)
        q = poset_from_text(text)
        assert q.labels == p.labels
        assert poset_to_text(q) == text

    def test_relations_any_strictness(self):
        p = poset_from_text("elements x y z\nx < y\ny < z\n")
        assert p.leq("x", "z")

    def test_comments_and_blanks(self):
        p = poset_from_text("# top\n\nelements a b\n# rel\na < b\n")
        assert p.less("a", "b")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as ei:
            poset_from_text("a < b\n")
        assert ei.value.line == 1
        with pytest.raises(ParseError) as ei:
            poset_from_text("elements a b\na < b < c\n")
        assert ei.value.line == 2
        with pytest.raises(ParseError) as ei:
            poset_from_text("elements a b\na < c\n")
        assert ei.value.line == 2
        with pytest.raises(ParseError):
            poset_from_text("")

    def test_cycle_reported_as_parse_error(self):
        with pytest.raises(ParseError):
            poset_from_text("elements a b\na < b\nb < a\n")

    def test_save_load(self, tmp_path, monkeypatch, capsys):
        p = chain(3)
        path = tmp_path / "poset.txt"
        save_poset(p, path)
        q = load_poset(path)
        assert poset_to_text(q) == poset_to_text(p)
        # "-" reads stdin and writes stdout.
        monkeypatch.setattr(sys, "stdin", io.StringIO(poset_to_text(p)))
        assert poset_to_text(load_poset("-")) == poset_to_text(p)
        monkeypatch.chdir(tmp_path)
        save_poset(p, "-")
        assert capsys.readouterr().out == poset_to_text(p)
        assert not (tmp_path / "-").exists()
