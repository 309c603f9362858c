"""Closed-form bounds, the bound report, and the counting signatures."""

import random

import pytest

from crossvec import (
    BoundsReport,
    Family,
    best_upper_bound,
    ceiling_upper_bound,
    difference_upper_bound,
    distinct_values_bound_check,
    exact_value,
    generalized_bounds,
    max_family_size,
    height_signature,
    lower_bound,
    product_family,
    recursive_upper_bound,
    split_upper_bound,
    verify,
)

from helpers import random_ranked_family, random_verified_family


class TestClosedForms:
    def test_lower_and_exact(self):
        assert lower_bound(3, 4) == 27
        assert exact_value(3, 2) == 3
        assert exact_value(3, 3) == 9
        assert exact_value(1, 7) == 1
        assert exact_value(3, 4) is None

    def test_recursive_frozen(self):
        assert recursive_upper_bound(2, 4) == 12
        assert recursive_upper_bound(2, 5) == 28
        assert recursive_upper_bound(3, 4) == 45

    def test_recursive_returns_exact_below_w4(self):
        assert recursive_upper_bound(3, 3) == 9
        assert recursive_upper_bound(5, 2) == 5
        assert recursive_upper_bound(4, 1) == 1

    def test_recursive_equals_difference_form(self):
        for k in range(1, 7):
            for w in (4, 5, 6):
                assert recursive_upper_bound(k, w) == difference_upper_bound(k, w)

    def test_recursive_untrusted(self):
        # seeded only by g(k, 1) = 1 the recursion telescopes to k^w - (k-1)^w
        for k in range(1, 7):
            for w in range(1, 7):
                got = recursive_upper_bound(k, w, trust_exact=False)
                assert got == k**w - (k - 1) ** w

    def test_ceiling(self):
        assert ceiling_upper_bound(2, 4) == 16
        assert ceiling_upper_bound(2, 6) == 64
        assert ceiling_upper_bound(3, 3) == 9
        with pytest.raises(ValueError):
            ceiling_upper_bound(2, 2)

    def test_split(self):
        assert split_upper_bound(2, 6, 3) == 64
        assert split_upper_bound(2, 4, 1) == 16
        assert split_upper_bound(2, 4, 2) == 16
        with pytest.raises(ValueError):
            split_upper_bound(2, 4, 0)
        with pytest.raises(ValueError):
            split_upper_bound(2, 4, 4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lower_bound(0, 3)
        with pytest.raises(ValueError):
            recursive_upper_bound(2, 0)
        with pytest.raises(ValueError):
            difference_upper_bound(2, 2)


class TestBestUpperBound:
    def test_frozen_tables(self):
        rep = best_upper_bound(2, 4)
        assert (rep.lower, rep.upper) == (8, 12)
        rep = best_upper_bound(3, 4)
        assert (rep.lower, rep.upper) == (27, 45)

    def test_exact_widths(self):
        rep = best_upper_bound(4, 3)
        assert rep.exact
        assert rep.lower == rep.upper == 16
        assert ("exact", 16) in rep.candidates

    def test_report_invariants(self):
        for k in range(1, 7):
            for w in range(1, 8):
                rep = best_upper_bound(k, w)
                assert rep.lower == k ** (w - 1) == rep.conjectured
                assert rep.lower <= rep.upper
                assert rep.upper == min(v for _, v in rep.candidates)
                assert rep.k == k and rep.ks is None
                assert rep.exact == (w <= 3 or k == 1)

    def test_report_rejects_broken_invariants(self):
        ok = dict(w=4, lower=8, conjectured=8, upper=12, candidates=(("a", 12),),
                  exact=False, k=2)
        BoundsReport(**ok)
        for bad in (dict(lower=13), dict(conjectured=13), dict(upper=15)):
            with pytest.raises(ValueError):
                BoundsReport(**{**ok, **bad})

    def test_untrusted_variant(self):
        rep = best_upper_bound(2, 4, trust_exact=False)
        assert rep.upper == 2**4 - 1
        assert rep.candidates == (("recursive-untrusted", 15),)
        # trusting the proven w <= 3 values can only help
        assert best_upper_bound(2, 4).upper <= rep.upper


class TestGeneralizedBounds:
    def test_smallest_threshold_one_is_exact(self):
        rep = generalized_bounds((1, 3, 5))
        assert rep.exact
        assert rep.lower == rep.upper == 15
        assert rep.ks == (1, 3, 5) and rep.k is None

    def test_open_case(self):
        rep = generalized_bounds((2, 2, 3))
        assert not rep.exact
        assert (rep.lower, rep.upper) == (6, 12)

    def test_proven_candidates(self):
        # Width 1 holds one vector, width 2 at most max(a, b), and equal
        # thresholds get best_upper_bound's candidates: the paper's k^2 at
        # width 3.  Each exact value is the certified search maximum.
        for ks, name, value in (
            ((2,), "width-1", 1),
            ((2, 5), "width-2", 5),
            ((5, 2), "width-2", 5),
            ((3, 4), "width-2", 4),
            ((2, 2, 2), "exact", 4),
        ):
            rep = generalized_bounds(ks)
            assert (name, value) in rep.candidates
            assert rep.exact and rep.lower == rep.upper == value, ks
            res = max_family_size(ks, len(ks))
            assert res.exhaustive and res.best_size == value, ks
        rep, ref = generalized_bounds((2, 2, 2, 2)), best_upper_bound(2, 4)
        assert set(ref.candidates) <= set(rep.candidates)
        assert (rep.lower, rep.upper, rep.exact) == (ref.lower, ref.upper, ref.exact) == (8, 12, False)

    def test_geometric_doubling_is_exact(self):
        for ks, value in (((2, 2, 4), 8), ((2, 2, 4, 8), 64), ((3, 3, 6), 18)):
            rep = generalized_bounds(ks)
            assert rep.exact
            assert rep.upper == rep.lower == value
            assert ("geometric-exact", value) in rep.candidates

    def test_validation(self):
        # Any order gives the values of the sorted tuple; ks stays as given.
        for ks in ((3, 2), (4, 2, 2), (2, 4, 2), (5, 3, 1)):
            rep, ref = generalized_bounds(ks), generalized_bounds(sorted(ks))
            assert rep.ks == ks and rep.w == len(ks)
            assert (rep.lower, rep.upper, rep.exact, rep.candidates) == (
                ref.lower, ref.upper, ref.exact, ref.candidates,
            )
        assert generalized_bounds((4, 2, 2)).exact  # the doubling pattern, unsorted
        with pytest.raises(ValueError, match="sequence"):
            generalized_bounds(5)  # a bare int has no width
        with pytest.raises(ValueError, match="non-empty"):
            generalized_bounds(())


class TestResidueSignature:
    def test_basic(self):
        from crossvec import residue_signature

        assert residue_signature((7, -1, 3), 3) == (1, 2, 0)
        assert residue_signature((7, -1, 3), 3, drop_last=True) == (1, 2)
        with pytest.raises(ValueError):
            residue_signature((5,), 3, drop_last=True)
        with pytest.raises(ValueError):
            residue_signature((5, 1), 0)

    def test_injective_on_verified_families(self):
        from crossvec import residue_signature

        rng = random.Random(555)
        for _ in range(150):
            k = rng.randrange(1, 5)
            w = rng.randrange(2, 5)
            f = random_verified_family(rng, k, w, rng.randrange(2, 9))
            sigs = {residue_signature(v, k) for v in f}
            assert len(sigs) == len(f)

    def test_injective_dropping_last_on_ranked(self):
        from crossvec import residue_signature

        rng = random.Random(556)
        for _ in range(150):
            k = rng.randrange(2, 5)
            w = rng.randrange(2, 5)
            f = random_ranked_family(rng, k, w, rng.randrange(2, 9))
            assert verify(f, k).ok and verify(f, k).is_ranked
            sigs = {residue_signature(v, k, drop_last=True) for v in f}
            assert len(sigs) == len(f)


class TestHeightSignature:
    def test_two_point_example(self):
        f = product_family(2, 2)
        assert height_signature(f, 2) == {(0, 0): (1,), (1, -1): (2,)}

    def test_full_chain_in_one_order(self):
        f = Family(2, [(0, 3), (1, 2), (2, 1), (3, 0)])
        heights = height_signature(f, 4)
        assert heights == {
            (0, 3): (1,),
            (1, 2): (2,),
            (2, 1): (3,),
            (3, 0): (4,),
        }

    def test_injective_with_bounded_heights(self):
        rng = random.Random(808)
        done = 0
        while done < 60:
            k = rng.randrange(2, 5)
            w = rng.randrange(2, 5)
            f = random_verified_family(rng, k, w, rng.randrange(2, 8))
            firsts = [v[0] for v in f]
            if len(set(firsts)) != len(firsts) or len(f) < 2:
                continue
            done += 1
            heights = height_signature(f, k)
            assert len(set(heights.values())) == len(f)
            for hs in heights.values():
                assert len(hs) == w - 1
                assert all(1 <= h <= k for h in hs)

    def test_errors(self):
        crossing = Family(2, [(0, 2), (2, 0)])
        with pytest.raises(ValueError):
            height_signature(crossing, 2)
        collide = Family(2, [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            height_signature(collide, 2)  # comparable anyway, still ValueError
        tie = Family(3, [(0, 2, 1), (0, 1, 2)])
        with pytest.raises(ValueError):
            height_signature(tie, 2)  # coordinate 1 collision


class TestDistinctValuesBound:
    def test_holds_on_constructions(self):
        for k in (2, 3):
            for w in (2, 3, 4):
                f = product_family(k, w)
                for coord in range(1, w + 1):
                    assert distinct_values_bound_check(f, k, coord)

    def test_tight_case(self):
        f = Family(2, [(0, 3), (1, 2), (2, 1), (3, 0)])
        assert distinct_values_bound_check(f, 4, 1)

    def test_errors(self):
        f = product_family(2, 3)
        with pytest.raises(ValueError):
            distinct_values_bound_check(f, 2, 0)
        with pytest.raises(ValueError):
            distinct_values_bound_check(f, 2, 4)
        bad = Family(2, [(0, 2), (2, 0)])
        with pytest.raises(ValueError):
            distinct_values_bound_check(bad, 2, 1)
