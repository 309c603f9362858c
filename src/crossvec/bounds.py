"""Closed-form bounds on the maximum family size, and counting signatures.

Throughout, g(k, w) denotes the largest size of a width-w family that is
an antichain with no k-crossing pair.  Known exactly: g(k, 1) = 1,
g(k, 2) = k, g(k, 3) = k^2, and g(1, w) = 1.  The conjectured value is
k^(w-1) for all w, which the constructions module realizes; this module
computes the upper-bound side.

The two signatures at the bottom (coordinatewise residues, chain heights
in a pencil of auxiliary orders) are the injections behind the counting
bounds; their injectivity on verified families is property-tested rather
than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Family, Vector, threshold_seq, verify


def _check_positive(name: str, value: int, minimum: int = 1) -> None:
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def lower_bound(k: int, w: int) -> int:
    """Best known (and conjectured optimal) lower bound: k^(w-1)."""
    _check_positive("k", k)
    _check_positive("w", w)
    return k ** (w - 1)


def exact_value(k: int, w: int) -> int | None:
    """The known exact value k^(w-1) for w <= 3 or k = 1, else None."""
    _check_positive("k", k)
    _check_positive("w", w)
    if w <= 3 or k == 1:
        return k ** (w - 1)
    return None


def recursive_upper_bound(k: int, w: int, trust_exact: bool = True) -> int:
    """Iterate g(k, w) <= k^(w-1) + (k-1) * g(k, w-1).

    With trust_exact the recursion is seeded by the proven exact values
    for w <= 3, giving k^w - k^2 (k-1)^(w-2) for w >= 3.  Without it the
    only seed is g(k, 1) = 1 and the bound degrades to k^w - (k-1)^w,
    which is useful as an independent cross-check.
    """
    _check_positive("k", k)
    _check_positive("w", w)
    if trust_exact and w <= 3:
        return k ** (w - 1)
    value = 1
    start = 4 if trust_exact else 2
    if trust_exact:
        value = k * k
    for v in range(start, w + 1):
        value = k ** (v - 1) + (k - 1) * value
    return value


def difference_upper_bound(k: int, w: int) -> int:
    """k^w - k^2 (k-1)^(w-2), valid for w >= 3 (equals k^2 at w = 3)."""
    _check_positive("k", k)
    _check_positive("w", w, 3)
    return k**w - k * k * (k - 1) ** (w - 2)


def ceiling_upper_bound(k: int, w: int) -> int:
    """ceil(w/3) * k^(w-1), valid for w >= 3."""
    _check_positive("k", k)
    _check_positive("w", w, 3)
    return -(-w // 3) * k ** (w - 1)


def _term_upper(k: int, v: int) -> int:
    # Best known value for a split term: exact through width 3, else the
    # better of the two closed forms.
    exact = exact_value(k, v)
    if exact is not None:
        return exact
    return min(difference_upper_bound(k, v), ceiling_upper_bound(k, v))


def split_upper_bound(k: int, w: int, v: int) -> int:
    """g(k, w) <= k^(w-v) g(k, v) + k^v g(k, w-v), for 1 <= v <= w-1.

    Each g-term is resolved by its best known upper bound (exact when
    the width is at most 3).
    """
    _check_positive("k", k)
    _check_positive("w", w, 2)
    if not 1 <= v <= w - 1:
        raise ValueError(f"split point must satisfy 1 <= v <= {w - 1}, got {v}")
    return k ** (w - v) * _term_upper(k, v) + k**v * _term_upper(k, w - v)


@dataclass(frozen=True)
class BoundsReport:
    """Lower/upper bounds with the named candidates behind the upper.

    Exactly one of `k` (uniform threshold) and `ks` (per-coordinate
    thresholds) is set.  Invariants: lower <= conjectured <= upper, and
    upper equals the minimum over candidates.  `exact` marks reports
    where lower and upper provably meet.
    """

    w: int
    lower: int
    conjectured: int
    upper: int
    candidates: tuple[tuple[str, int], ...]
    exact: bool
    k: int | None = None
    ks: tuple[int, ...] | None = None

    def __post_init__(self):
        if not self.lower <= self.conjectured <= self.upper:
            raise ValueError(
                f"bounds out of order: lower {self.lower}, conjectured "
                f"{self.conjectured}, upper {self.upper}"
            )
        if not self.candidates or self.upper != min(v for _, v in self.candidates):
            raise ValueError(
                f"upper {self.upper} is not the minimum over the candidates "
                f"{self.candidates}"
            )


def best_upper_bound(k: int, w: int, trust_exact: bool = True) -> BoundsReport:
    """Minimum over all closed-form upper bounds for the uniform threshold.

    Candidates: the exact value where known, the recursive bound, the
    difference and ceiling forms (w >= 3), and every admissible split.
    With trust_exact=False everything resting on the exact w <= 3 values
    is dropped and only the pure recursion remains.
    """
    _check_positive("k", k)
    _check_positive("w", w)
    lower = lower_bound(k, w)
    if not trust_exact:
        pure = recursive_upper_bound(k, w, trust_exact=False)
        return BoundsReport(
            w=w,
            k=k,
            lower=lower,
            conjectured=lower,
            upper=pure,
            candidates=(("recursive-untrusted", pure),),
            exact=pure == lower,
        )
    candidates: list[tuple[str, int]] = []
    exact = exact_value(k, w)
    if exact is not None:
        candidates.append(("exact", exact))
    candidates.append(("recursive", recursive_upper_bound(k, w)))
    if w >= 3:
        candidates.append(("difference", difference_upper_bound(k, w)))
        candidates.append(("ceiling", ceiling_upper_bound(k, w)))
    for v in range(1, w):
        candidates.append((f"split(v={v})", split_upper_bound(k, w, v)))
    upper = min(value for _, value in candidates)
    return BoundsReport(
        w=w,
        k=k,
        lower=lower,
        conjectured=lower,
        upper=upper,
        candidates=tuple(candidates),
        exact=exact is not None,
    )


def _is_geometric(ks: tuple[int, ...]) -> bool:
    # Doubling pattern (k, k, 2k, 4k, ..., 2^(w-2) k); the exact value
    # equals the product of all thresholds but the first.
    if len(ks) < 2 or ks[0] != ks[1]:
        return False
    return all(ks[i] == 2 * ks[i - 1] for i in range(2, len(ks)))


def generalized_bounds(ks) -> BoundsReport:
    """Bounds for per-coordinate thresholds, in any order.

    The product of all thresholds except the smallest is realized by
    generalized_product_family, and the full product is an upper bound.
    When the smallest threshold is 1 the two meet; so do they when the
    sorted thresholds follow the doubling pattern
    (k, k, 2k, ..., 2^(w-2) k), where the lower bound is known to be
    exact.  ks must be a non-empty sequence of positive thresholds; the
    report keeps their order.
    """
    ks = threshold_seq(ks)
    upper = math.prod(ks)
    lower = upper // min(ks)
    candidates: list[tuple[str, int]] = [("product-all", upper)]
    exact = False
    if _is_geometric(tuple(sorted(ks))):
        candidates.append(("geometric-exact", lower))
        exact = True
    if min(ks) == 1:
        exact = True
    return BoundsReport(
        w=len(ks),
        ks=ks,
        lower=lower,
        conjectured=lower,
        upper=min(v for _, v in candidates),
        candidates=tuple(candidates),
        exact=exact,
    )


def residue_signature(v, k: int, drop_last: bool = False) -> tuple[int, ...]:
    """Coordinatewise residues mod k, optionally dropping the last coordinate.

    On a verified family the full signature is injective: equal residues
    on two members force every differing coordinate apart by at least k,
    and an antichain pair differing by >= k in both directions would be
    k-crossing.  On a ranked verified family the same holds with the
    last coordinate dropped, the constant rank recovering it, which is
    the counting step behind the distinct-values bound.
    """
    _check_positive("k", k)
    coords = tuple(v)
    if drop_last:
        if len(coords) < 2:
            raise ValueError("cannot drop a coordinate from a width-1 vector")
        coords = coords[:-1]
    return tuple(c % k for c in coords)


def height_signature(family: Family, k: int) -> dict[Vector, tuple[int, ...]]:
    """Heights of each vector in the w-1 auxiliary orders, all in [1, k].

    For each coordinate i >= 2 define A <_i B when A[1] < B[1] and
    A[i] > B[i].  In a verified family a chain of k+1 vectors in <_i
    would have extremes k apart in both directions (a k-crossing), so
    every height lands in [1, k]; the map from vectors to their height
    tuples is injective whenever the family members are pairwise
    distinguishable on coordinate 1, which is required here.

    Raises ValueError if the family does not verify for k or two members
    collide on coordinate 1.
    """
    _check_positive("k", k)
    if family.width < 2:
        raise ValueError("height signature needs width >= 2")
    report = verify(family, k)
    if not report.ok:
        raise ValueError(f"family does not verify for k={k}")
    by_first = sorted(family, key=lambda v: v[0])
    for a, b in zip(by_first, by_first[1:]):
        if a[0] == b[0]:
            raise ValueError(f"coordinate 1 collision: {a} and {b}")
    heights: dict[Vector, list[int]] = {v: [] for v in family}
    for i in range(1, family.width):
        level: dict[Vector, int] = {}
        for v in by_first:
            h = 1
            for u in by_first:
                if u[0] >= v[0]:
                    break
                if u[i] > v[i]:
                    h = max(h, level[u] + 1)
            level[v] = h
        for v in family:
            heights[v].append(level[v])
    return {v: tuple(hs) for v, hs in heights.items()}


def distinct_values_bound_check(family: Family, k: int, coord: int) -> bool:
    """True iff the count of distinct values on `coord` is <= k^(w-1).

    `coord` is 1-based.  The family must verify for k; the bound is the
    residue-signature counting argument applied to one coordinate.
    """
    _check_positive("k", k)
    if not 1 <= coord <= family.width:
        raise ValueError(f"coordinate {coord} out of range 1..{family.width}")
    report = verify(family, k)
    if not report.ok:
        raise ValueError(f"family does not verify for k={k}")
    values = {v[coord - 1] for v in family}
    return len(values) <= k ** (family.width - 1)
