"""Family generators against frozen enumerations and closed-form sizes."""

import math
import random

import pytest

from crossvec import (
    Family,
    cyclic_family,
    cyclic_fixup_vector,
    generalized_product_family,
    inductive_lift,
    lexicographic_family,
    non_ranked_example,
    product_family,
    rank,
    verify,
    weak_compression_family,
)


def lift_chain(k, w):
    """Compose lifts from the width-1 singleton up to width w."""
    f = Family(1, [(0,)])
    while f.width < w:
        lows = [min(v[i] for v in f) for i in range(f.width)]
        f = f.translate([-x for x in lows])
        c = max(x for v in f for x in v) + 1
        f = inductive_lift(f, k, c)
    return f


class TestProduct:
    def test_frozen_k2_w3(self):
        assert product_family(2, 3).vectors == (
            (0, 0, 0),
            (0, 1, -1),
            (1, 0, -1),
            (1, 1, -2),
        )

    def test_sizes_and_verification(self):
        for k in range(1, 7):
            for w in range(1, 7):
                f = product_family(k, w)
                assert len(f) == k ** (w - 1)
                assert f.rank_values() == frozenset({0})
                assert verify(f, k).ok

    def test_degenerate_k1(self):
        assert product_family(1, 4).vectors == ((0, 0, 0, 0),)

    def test_errors(self):
        with pytest.raises(ValueError):
            product_family(0, 3)
        with pytest.raises(ValueError):
            product_family(2, 0)


class TestLexicographic:
    def test_frozen_k2_w3(self):
        assert lexicographic_family(2, 3, (1,)).vectors == (
            (1, 1, 1),
            (2, 0, 1),
            (2, 1, 0),
            (3, 0, 0),
        )

    def test_constant_seq_is_translated_product(self):
        for k, w in ((2, 3), (3, 3), (2, 4), (4, 2)):
            needed = w * (k - 1) // k
            f = lexicographic_family(k, w, (w,) * max(needed, 1))
            shift = (0,) * (w - 1) + (w * (k - 1),)
            assert f == product_family(k, w).translate(shift)

    def test_random_seqs_verify_at_constant_rank(self):
        rng = random.Random(90125)
        for _ in range(40):
            k = rng.randrange(1, 7)
            w = rng.randrange(2, 6)
            needed = w * (k - 1) // k
            seq = [rng.randrange(1, w + 1) for _ in range(needed)]
            f = lexicographic_family(k, w, seq)
            assert len(f) == k ** (w - 1)
            assert f.rank_values() == frozenset({w * (k - 1)})
            assert verify(f, k).ok

    def test_degenerate_k1(self):
        assert lexicographic_family(1, 3, ()).vectors == ((0, 0, 0),)

    def test_errors(self):
        with pytest.raises(ValueError):
            lexicographic_family(3, 3, (1,))  # needs 2 entries
        with pytest.raises(ValueError):
            lexicographic_family(2, 3, (0, 1))  # entry out of range
        with pytest.raises(ValueError):
            lexicographic_family(2, 1, ())


class TestCyclic:
    def test_frozen_k2(self):
        assert cyclic_family(2, 3).vectors == (
            (0, 2, 1),
            (1, 0, 2),
            (1, 1, 1),
            (2, 1, 0),
        )

    def test_size_by_residue(self):
        # rank 2k-1 reaches k^2 except at k = 1 (mod 3); rank 2k-2 is the mirror
        for k in range(1, 7):
            hi = cyclic_family(k, 2 * k - 1)
            lo = cyclic_family(k, 2 * k - 2)
            assert verify(hi, k).ok or len(hi) == 0
            assert verify(lo, k).ok or len(lo) == 0
            if k % 3 == 1:
                assert len(hi) == k * k - 1
                assert len(lo) == k * k
            elif k % 3 == 2:
                assert len(hi) == k * k
                assert len(lo) == k * k - 1
            else:
                assert len(hi) == k * k
                assert len(lo) == k * k

    def test_constant_rank(self):
        for k, r in ((3, 5), (4, 6), (5, 9)):
            f = cyclic_family(k, r)
            assert f.rank_values() == frozenset({r})

    def test_fixup_completes_to_k_squared(self):
        for k in (1, 4, 7):
            base = cyclic_family(k, 2 * k - 1)
            assert len(base) == k * k - 1
            fx = cyclic_fixup_vector(k)
            assert rank(fx) == 2 * k - 1
            joined = Family(3, base.vectors + (fx,))
            assert len(joined) == k * k
            assert verify(joined, k).ok

    def test_fixup_frozen_k4(self):
        # only extender up to rotation, found by scanning all rank-7 vectors
        assert cyclic_fixup_vector(4) == (1, 1, 5)

    def test_errors(self):
        with pytest.raises(ValueError):
            cyclic_family(3, 3)  # rank_choice must be 5 or 4
        with pytest.raises(ValueError):
            cyclic_fixup_vector(5)
        with pytest.raises(ValueError):
            cyclic_fixup_vector(0)


class TestInductiveLift:
    def test_single_lift_counts_and_layout(self):
        base = Family(2, [(0, 1), (1, 0)])
        f = inductive_lift(base, 2, 2)
        assert len(f) == 4
        assert f.width == 3
        # copy i sits in [(i-1)c, ic)^2 with new coordinate -i
        assert f.vectors == ((0, 1, -1), (1, 0, -1), (2, 3, -2), (3, 2, -2))
        assert verify(f, 2).ok

    def test_chain_realizes_power_sizes(self):
        for k in (2, 3, 4):
            for w in (2, 3, 4):
                f = lift_chain(k, w)
                assert len(f) == k ** (w - 1)
                assert verify(f, k).ok

    def test_errors(self):
        base = Family(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            inductive_lift(base, 2, 1)  # (0,1) outside [0,1)^2
        with pytest.raises(ValueError):
            inductive_lift(base, 2, 0)
        bad = Family(2, [(0, 0), (1, 1)])  # comparable pair
        with pytest.raises(ValueError):
            inductive_lift(bad, 2, 2)


class TestWeakCompression:
    # (total size, members with last coordinate divisible by k)
    FROZEN = {2: (5, 4), 3: (14, 10), 4: (28, 18), 5: (48, 28)}

    def test_counts(self):
        for k, (total, res0) in self.FROZEN.items():
            f = weak_compression_family(k)
            assert len(f) == total
            assert sum(1 for v in f if v[3] % k == 0) == res0

    def test_residue_class_overflows_square(self):
        for k in (3, 4, 5):
            res0 = sum(1 for v in weak_compression_family(k) if v[3] % k == 0)
            assert res0 > k * k
        # k = 2 degenerates to exactly k^2
        assert sum(1 for v in weak_compression_family(2) if v[3] % 2 == 0) == 4

    def test_verifies(self):
        for k in range(2, 7):
            assert verify(weak_compression_family(k), k).ok

    def test_errors(self):
        with pytest.raises(ValueError):
            weak_compression_family(1)


class TestGeneralizedProduct:
    def test_sizes(self):
        for ks in ((1, 3, 5), (2, 2, 4), (2, 3, 3, 4), (1, 1), (2, 2, 2)):
            f = generalized_product_family(ks)
            assert len(f) == math.prod(ks[1:])
            assert verify(f, ks).ok
            assert f.rank_values() == frozenset({0})

    def test_frozen_trivial(self):
        assert generalized_product_family((1, 1)).vectors == ((0, 0),)

    def test_thresholds_in_any_order(self):
        # The first coordinate with the least threshold balances the rank.
        assert generalized_product_family((3, 2)).vectors == ((0, 0), (1, -1), (2, -2))
        for ks in ((3, 2, 2), (4, 2, 3), (3, 1, 2, 1)):
            f = generalized_product_family(ks)
            assert len(f) == math.prod(ks) // min(ks)
            assert verify(f, ks).ok and f.rank_values() == frozenset({0})
        with pytest.raises(ValueError):
            generalized_product_family((0, 1))
        with pytest.raises(ValueError, match="sequence"):
            generalized_product_family(5)  # a bare int has no width


class TestNonRankedExample:
    def test_frozen(self):
        f = non_ranked_example()
        assert f.vectors == (
            (0, 2, 1, 1),
            (1, 0, 2, 1),
            (1, 1, 1, 1),
            (1, 3, 2, 0),
            (2, 1, 0, 1),
            (2, 1, 3, 0),
            (2, 2, 2, 0),
            (3, 2, 1, 0),
        )

    def test_properties(self):
        f = non_ranked_example()
        rep = verify(f, 2)
        assert rep.ok
        assert len(f) == 8
        assert not rep.is_ranked
        assert f.rank_values() == frozenset({4, 6})
