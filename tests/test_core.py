"""Vectors, thresholds, pair predicates, verification, text format."""

import io
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossvec import (
    Family,
    ParseError,
    dual_orders_check,
    family_from_text,
    family_to_text,
    is_comparable,
    generalized_bounds,
    generalized_product_family,
    is_generalized_crossing,
    load_family,
    product_family,
    rank,
    save_family,
    verify,
)
from crossvec.core import _relation_table, threshold_seq

from helpers import oracle_report, pair_relation, random_verified_family


def test_rank():
    assert rank((0, 0, 0)) == 0
    assert rank((1, -4, 3)) == 0
    assert rank((2, 3)) == 5
    assert rank(()) == 0


class TestFamily:
    def test_canonical_order(self):
        f = Family(2, [(3, 0), (0, 1), (1, 1)])
        assert f.vectors == ((0, 1), (1, 1), (3, 0))
        assert len(f) == 3

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Family(2, [(3, 0), (0, 1), (3, 0)])

    def test_width_checked(self):
        with pytest.raises(ValueError):
            Family(2, [(1, 2, 3)])
        with pytest.raises(ValueError):
            Family(0, [])

    def test_from_vectors(self):
        f = Family.from_vectors([(1, 2), (0, 5)])
        assert f.width == 2
        assert f.vectors == ((0, 5), (1, 2))
        with pytest.raises(ValueError):
            Family.from_vectors([])

    def test_translate(self):
        f = Family(2, [(0, 1), (2, 0)])
        g = f.translate((10, -1))
        assert g.vectors == ((10, 0), (12, -1))
        with pytest.raises(ValueError):
            f.translate((1,))

    def test_rank_values(self):
        f = Family(3, [(0, 0, 0), (1, -1, 0), (2, 2, 2)])
        assert f.rank_values() == frozenset({0, 6})

    def test_membership_equality_hash(self):
        f = Family(2, [(0, 1), (1, 0)])
        g = Family(2, [(1, 0), (0, 1)])
        assert (0, 1) in f and (5, 5) not in f
        assert f == g
        assert hash(f) == hash(g)
        assert list(f) == [(0, 1), (1, 0)]


class TestThresholds:
    def test_validation(self):
        # threshold_seq rejects a nonpositive threshold; the callers that
        # take the width from the tuple also reject an empty one, and take
        # a decreasing one as it is.
        with pytest.raises(ValueError):
            threshold_seq((0, 1), 2)
        for call in (generalized_bounds, generalized_product_family):
            with pytest.raises(ValueError):
                call(())
            with pytest.raises(ValueError):
                call((0, 1))
            call((3, 2))

    def test_uniform(self):
        # A bare int is the same threshold on every coordinate.
        ks = threshold_seq(3, 4)
        assert ks == (3, 3, 3, 3)
        rep = generalized_bounds(ks)
        assert rep.w == 4 and rep.ks == ks
        assert threshold_seq((1, 2), 2) != threshold_seq(1, 2)

    def test_threshold_seq_coercions(self):
        assert threshold_seq(2, 3) == (2, 2, 2)
        assert threshold_seq((1, 2, 2), 3) == (1, 2, 2)
        assert threshold_seq([2, 5], 2) == (2, 5)
        # raw sequences need not be sorted, only positive
        assert threshold_seq((3, 1), 2) == (3, 1)
        with pytest.raises(ValueError):
            threshold_seq((1, 2), 3)
        with pytest.raises(ValueError):
            threshold_seq(0, 2)

    def test_numpy_integers_accepted(self):
        assert threshold_seq(np.int64(3), 2) == (3, 3)
        assert threshold_seq((np.int64(2), np.int32(5)), 2) == (2, 5)
        assert all(type(k) is int for k in threshold_seq(np.int64(3), 2))
        f = Family(2, [(np.int64(1), np.int64(-2)), (0, np.uint8(4))])
        assert f.vectors == ((0, 4), (1, -2))
        assert all(type(c) is int for v in f for c in v)
        assert verify(f, np.int64(2)).ok

    def test_bool_and_float_rejected(self):
        for bad in (True, 2.0, np.float64(2.0), np.bool_(True)):
            with pytest.raises(ValueError):
                threshold_seq((2, bad), 2)
            with pytest.raises(ValueError):
                Family(1, [(bad,)])
            with pytest.raises(ValueError, match="thresholds"):
                threshold_seq(bad, 2)


class TestPredicates:
    def test_comparable(self):
        assert is_comparable((0, 0), (1, 2))
        assert is_comparable((1, 2), (0, 0))
        assert is_comparable((1, 1), (1, 1))
        assert not is_comparable((0, 1), (1, 0))
        with pytest.raises(ValueError):
            is_comparable((0,), (0, 0))

    def test_k_crossing_basics(self):
        assert is_generalized_crossing((0, 100), (100, 0), 2)
        assert is_generalized_crossing((100, 0), (0, 100), 2)
        assert not is_generalized_crossing((0, 1), (1, 0), 2)
        assert is_generalized_crossing((0, 1), (1, 0), 1)
        # one-sided gaps never cross
        assert not is_generalized_crossing((0, 0), (5, 5), 3)
        with pytest.raises(ValueError):
            is_generalized_crossing((0, 1), (1, 0), 0)

    def test_one_crossing_is_distinct_incomparable(self):
        rng = random.Random(4821)
        for _ in range(300):
            w = rng.randrange(1, 5)
            a = tuple(rng.randrange(-3, 4) for _ in range(w))
            b = tuple(rng.randrange(-3, 4) for _ in range(w))
            expect = a != b and not is_comparable(a, b)
            assert is_generalized_crossing(a, b, 1) == expect

    def test_monotone_in_k(self):
        rng = random.Random(977)
        for _ in range(200):
            a = tuple(rng.randrange(-6, 7) for _ in range(3))
            b = tuple(rng.randrange(-6, 7) for _ in range(3))
            for k in range(2, 8):
                if is_generalized_crossing(a, b, k):
                    assert is_generalized_crossing(a, b, k - 1)

    def test_generalized(self):
        # gap must clear the threshold of its own coordinate
        assert is_generalized_crossing((0, 5), (3, 0), (3, 5))
        assert not is_generalized_crossing((0, 4), (3, 0), (3, 5))
        assert not is_generalized_crossing((0, 5), (2, 0), (3, 5))
        t = (1, 1, 2)
        assert is_generalized_crossing((0, 0, 2), (1, 1, 0), t)
        assert not is_generalized_crossing((0, 0, 1), (1, 1, 0), t)


class TestVerify:
    def test_good_family(self):
        rep = verify(product_family(2, 3), 2)
        assert rep.ok
        assert rep.size == 4
        assert rep.is_antichain and rep.is_cross_free
        assert rep.is_ranked and rep.rank_values == frozenset({0})
        assert rep.violations == ()

    def test_comparable_pair_reported(self):
        rep = verify(Family(2, [(0, 0), (1, 1), (5, 0)]), 3)
        assert not rep.is_antichain
        assert ((0, 0), (1, 1), "comparable") in rep.violations

    def test_crossing_pair_reported(self):
        rep = verify(Family(2, [(0, 3), (3, 0)]), 3)
        assert rep.is_antichain and not rep.is_cross_free
        assert rep.violations == (((0, 3), (3, 0), "crossing"),)

    def test_not_ranked(self):
        rep = verify(Family(2, [(0, 1), (1, 1)]), 2)
        assert not rep.is_ranked
        assert rep.rank_values == frozenset({1, 2})

    def test_thresholds_forms_agree(self):
        f = product_family(2, 3)
        for ks in (2, (2, 2, 2), [2, 2, 2]):
            assert verify(f, ks).ok

    def test_violation_cap(self):
        # the all-diagonal family is totally ordered: every pair violates
        f = Family(2, [(i, i) for i in range(30)])
        rep = verify(f, 2, violation_cap=10)
        assert not rep.is_antichain
        assert len(rep.violations) == 10
        assert rep.violations_truncated
        # the first pairs in (i, j) order, as the CLI prints them
        assert rep.violations[:3] == (
            ((0, 0), (1, 1), "comparable"),
            ((0, 0), (2, 2), "comparable"),
            ((0, 0), (3, 3), "comparable"),
        )
        assert rep.violations[-1] == ((0, 0), (10, 10), "comparable")
        full = verify(f, 2, violation_cap=1000)
        assert len(full.violations) == 30 * 29 // 2
        assert not full.violations_truncated
        assert [(a, b) for a, b, _ in full.violations[28:31]] == [
            ((0, 0), (29, 29)),
            ((1, 1), (2, 2)),
            ((1, 1), (3, 3)),
        ]
        assert full.violations[:10] == rep.violations
        assert verify(f, 2, violation_cap=0).violations == ()

    def test_negative_violation_cap_raises(self):
        # oracle_report's bad[:-1] would drop the last pair; refuse instead.
        f = Family(2, [(i, i) for i in range(3)])
        with pytest.raises(ValueError, match="violation_cap"):
            verify(f, 2, violation_cap=-1)

    def test_random_families_match_oracle(self):
        rng = random.Random(3141)
        for _ in range(20):
            n = rng.randrange(2, 40)
            vs = {tuple(rng.randrange(-5, 6) for _ in range(3)) for _ in range(n)}
            f = Family(3, vs)
            seq = (2, 2, 3)
            for cap in (0, 1, 3, 10**9):
                assert verify(f, seq, violation_cap=cap) == oracle_report(f, seq, cap)

    def test_large_family_matches_oracle(self):
        f = product_family(25, 3)
        assert len(f) == 625
        rep = verify(f, 25)
        assert rep.ok and rep.size == 625
        assert rep == oracle_report(f, (25, 25, 25))
        bad = Family(3, f.vectors + ((1000, 1000, 1000),))
        rep2 = verify(bad, 25)
        assert not rep2.ok and not rep2.is_antichain
        assert rep2 == oracle_report(bad, (25, 25, 25))

    def test_threshold_beyond_int64(self):
        # The kernel compares Python ints, so no threshold or coordinate
        # size is clamped or rounded.
        f = product_family(25, 3)
        bad = Family(3, f.vectors + ((1000, 1000, 1000), (2000, -2000, 0)))
        for fam, seq in ((f, (2**70,) * 3), (bad, (2**70, 3, 2**40))):
            assert verify(fam, seq) == oracle_report(fam, seq)
        assert verify(f, 2**70).ok
        rep = verify(bad, (2**70, 3, 2**40))
        assert rep.is_cross_free and not rep.is_antichain

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_property(self, data):
        w = data.draw(st.integers(1, 5), label="w")
        coord = st.one_of(st.integers(-4, 4), st.integers(-(2**66), 2**66))
        vs = data.draw(
            st.sets(st.tuples(*[coord] * w), max_size=40), label="vectors"
        )
        seq = data.draw(
            st.tuples(*[st.one_of(st.integers(1, 4), st.integers(1, 2**70))] * w),
            label="ks",
        )
        cap = data.draw(st.sampled_from((0, 1, 3, 100)), label="cap")
        f = Family(w, vs)
        assert verify(f, seq, violation_cap=cap) == oracle_report(f, seq, cap)


class TestRelationTable:
    def test_entries_match_their_definitions(self):
        # Negative values, and values and thresholds beyond int64.
        rng = random.Random(2718)
        for _ in range(200):
            scale = rng.choice((1, 2**66))
            column = [rng.randrange(-6, 7) * scale for _ in range(rng.randrange(0, 30))]
            k = rng.choice((1, 2, 3, 2**70)) * rng.choice((1, scale))
            table = _relation_table(column, k)
            assert set(table) == set(column)

            def where(test):
                return sum(1 << i for i, y in enumerate(column) if test(y))

            for x, entry in table.items():
                assert entry == (
                    where(lambda y: y < x),
                    where(lambda y: y <= x),
                    where(lambda y: y <= x - k),
                    where(lambda y: y < x + k),
                )


class TestDualOrders:
    def test_two_free_coordinates(self):
        f = Family(3, [(5, 0, 3), (5, 2, 1), (5, 1, 2)])
        got = dual_orders_check(f, fixed=(1,))
        assert got == [(5, 0, 3), (5, 1, 2), (5, 2, 1)]

    def test_width_two(self):
        f = Family(2, [(1, 4), (3, 0), (2, 2)])
        assert dual_orders_check(f) == [(1, 4), (2, 2), (3, 0)]

    def test_errors(self):
        f = Family(3, [(5, 0, 3), (6, 1, 2)])
        with pytest.raises(ValueError):
            dual_orders_check(f, fixed=(1,))  # not constant on coord 1
        with pytest.raises(ValueError):
            dual_orders_check(f, fixed=())  # wrong fixed count for w=3
        g = Family(3, [(5, 0, 3), (5, 1, 4)])
        with pytest.raises(ValueError):
            dual_orders_check(g, fixed=(1,))  # comparable pair


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        f = Family(3, [(0, -2, 5), (1, 1, 1), (-3, 0, 0)])
        text = family_to_text(f)
        assert family_from_text(text) == f
        assert family_to_text(family_from_text(text)) == text

    def test_comments_and_blanks(self):
        f = family_from_text("# header\n\nw 2\n0 1\n# middle\n1 0\n")
        assert f.vectors == ((0, 1), (1, 0))

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as ei:
            family_from_text("v 2\n0 1\n")
        assert ei.value.line == 1
        with pytest.raises(ParseError) as ei:
            family_from_text("w 2\n0 1\n0 1 2\n")
        assert ei.value.line == 3
        with pytest.raises(ParseError) as ei:
            family_from_text("w 2\n0 x\n")
        assert ei.value.line == 2
        with pytest.raises(ParseError) as ei:
            family_from_text("w 2\n0 1\n0 1\n")
        assert ei.value.line == 3
        with pytest.raises(ParseError):
            family_from_text("# nothing\n")

    def test_save_load(self, tmp_path, monkeypatch):
        f = Family(2, [(4, -1), (0, 3)])
        path = tmp_path / "fam.txt"
        save_family(f, path)
        assert load_family(path) == f
        # "-" is stdout for save_family and stdin for load_family.
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        save_family(f, "-")
        assert out.getvalue() == family_to_text(f)
        monkeypatch.setattr(sys, "stdin", io.StringIO(out.getvalue()))
        assert load_family("-") == f


def test_pair_relation_oracle_agrees_with_predicates():
    rng = random.Random(60902)
    for _ in range(500):
        w = rng.randrange(1, 5)
        seq = tuple(rng.randrange(1, 4) for _ in range(w))
        a = tuple(rng.randrange(-4, 5) for _ in range(w))
        b = tuple(rng.randrange(-4, 5) for _ in range(w))
        kind = pair_relation(a, b, seq)
        assert (kind in ("equal", "comparable")) == is_comparable(a, b)
        if a != b:
            assert (kind == "crossing") == is_generalized_crossing(a, b, seq)
