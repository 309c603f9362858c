"""Generators for the known extremal families.

Each function returns a Family that is an antichain with no k-crossing
(or generalized ks-crossing) pair; the sizes realized here are the best
known lower bounds for the maximum-family question.  The tests verify
every generated family and pin the closed-form sizes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

from .core import Family, Vector, threshold_seq, verify


def _check_k_w(k: int, w: int, min_k: int = 1, min_w: int = 1) -> None:
    if k < min_k:
        raise ValueError(f"k must be >= {min_k}, got {k}")
    if w < min_w:
        raise ValueError(f"w must be >= {min_w}, got {w}")


def product_family(k: int, w: int) -> Family:
    """The rank-0 box family of size k^(w-1).

    Vectors have coordinates 1..w-1 free in [0, k-1] and the last
    coordinate balancing the sum to 0.  Any two members differ by less
    than k on the free coordinates, so a crossing would need both
    directions witnessed on the last coordinate, which is impossible;
    incomparability follows from the constant rank.
    """
    _check_k_w(k, w)
    vectors = []
    for head in itertools.product(range(k), repeat=w - 1):
        vectors.append(head + (-sum(head),))
    return Family(w, vectors)


def lexicographic_family(k: int, w: int, coord_seq: Sequence[int]) -> Family:
    """A ranked family of size k^(w-1) built from residue classes.

    Start from all vectors in [0, k-1]^w whose rank is congruent to
    w(k-1) mod k; each such vector A has a unique deficiency m(A) >= 0
    with m(A)*k + rank(A) = w(k-1).  The vector is then raised to rank
    w(k-1) by adding k to one coordinate m(A) times, the recipient of
    the p-th increment being coord_seq[p-1].  coord_seq entries are
    1-based coordinate indices; the sequence must cover the largest
    deficiency, which is w(k-1) // k.

    With coord_seq constantly w this reproduces product_family(k, w)
    translated to rank w(k-1).  k = 1 degenerates to the single zero
    vector (no residue classes to spread, no boosts to hand out).
    """
    _check_k_w(k, w, min_w=2)
    needed = w * (k - 1) // k
    seq = [int(i) for i in coord_seq]
    if len(seq) < needed:
        raise ValueError(
            f"coord_seq too short: need at least {needed} entries, got {len(seq)}"
        )
    for i in seq:
        if not 1 <= i <= w:
            raise ValueError(f"coord_seq entry {i} out of range 1..{w}")
    target = w * (k - 1)
    vectors: list[Vector] = []
    for base in itertools.product(range(k), repeat=w):
        s = sum(base)
        if (target - s) % k != 0:
            continue
        m = (target - s) // k
        boosts = Counter(seq[:m])
        vectors.append(
            tuple(c + k * boosts.get(i + 1, 0) for i, c in enumerate(base))
        )
    return Family(w, vectors)


def cyclic_family(k: int, rank_choice: int) -> Family:
    """Width-3 family cut out by cyclic difference constraints.

    Members are all integer vectors of rank `rank_choice` satisfying,
    cyclically for i in {1,2,3}: A[i+1] <= k + A[i] and
    A[i-1] <= k - 1 + A[i].  Equivalently every cyclic forward
    difference lies in [-(k-1), k], which is how the enumeration runs:
    a vector is determined by (d1, d2) = (A[2]-A[1], A[3]-A[2]) plus the
    rank, and the base point t = (rank - 2*d1 - d2) / 3 must land on an
    integer.

    rank_choice must be 2k-1 or 2k-2.  At rank 2k-1 the family has k^2
    vectors when k = 0, 2 (mod 3) and k^2 - 1 when k = 1 (mod 3)
    (appending cyclic_fixup_vector(k) restores k^2); at rank 2k-2 it has
    k^2 vectors when k = 1 (mod 3).
    """
    _check_k_w(k, 3)
    if rank_choice not in (2 * k - 1, 2 * k - 2):
        raise ValueError(
            f"rank_choice must be {2 * k - 1} or {2 * k - 2}, got {rank_choice}"
        )
    lo, hi = -(k - 1), k
    vectors = []
    for d1 in range(lo, hi + 1):
        for d2 in range(lo, hi + 1):
            if not lo <= -d1 - d2 <= hi:
                continue
            t3 = rank_choice - 2 * d1 - d2
            if t3 % 3 != 0:
                continue
            t = t3 // 3
            vectors.append((t, t + d1, t + d1 + d2))
    return Family(3, vectors)


def cyclic_fixup_vector(k: int) -> Vector:
    """The extra vector completing the rank 2k-1 cyclic family to k^2
    vectors when k = 1 (mod 3).

    With m = (k-1)//3 the vector is (m, m, m+k): its cyclic differences
    are (0, k, -k), so the last one sits a single step below the -(k-1)
    floor obeyed by the enumerated family, and the cyclic symmetry is
    lost.  Exhaustive scans over rank 2k-1 vectors (k = 4, 7, 10, 13)
    show this is the only valid completion up to coordinate rotation.
    """
    if k < 1 or k % 3 != 1:
        raise ValueError(f"fix-up vector applies for k = 1 (mod 3); got {k}")
    m = (k - 1) // 3
    return (m, m, m + k)


def inductive_lift(base: Family, k: int, c: int) -> Family:
    """Lift a verifying family from width w to width w+1, k-fold.

    `base` must verify for the uniform threshold k and sit inside
    [0, c)^w.  Copy i (1-based, i = 1..k) is base shifted by (i-1)*c on
    every old coordinate, so it occupies [(i-1)*c, i*c)^w, with the new
    last coordinate equal to -i.  Distinct copies differ by less than k
    on the new coordinate and live in disjoint boxes, which keeps the
    result verifying; the size is k * len(base).

    Chaining from the width-1 singleton {(0,)} with c = the current
    coordinate span rebuilds the k^(w-1) bound one width at a time.
    """
    _check_k_w(k, base.width)
    if c < 1:
        raise ValueError(f"c must be >= 1, got {c}")
    for v in base:
        if any(not 0 <= x < c for x in v):
            raise ValueError(f"base vector {v} outside [0, {c})^{base.width}")
    report = verify(base, k)
    if not report.ok:
        raise ValueError("base family does not verify for k={}".format(k))
    vectors = []
    for i in range(1, k + 1):
        shift = (i - 1) * c
        for v in base:
            vectors.append(tuple(x + shift for x in v) + (-i,))
    return Family(base.width + 1, vectors)


def non_ranked_example() -> Family:
    """Eight width-4 vectors verifying for k = 2 on two rank levels.

    A witness that maximum families need not be ranked: the family is an
    antichain with no 2-crossing pair, has size 8 = 2^3, and takes rank
    values 4 and 6.
    """
    return Family(
        4,
        [
            (0, 2, 1, 1),
            (2, 1, 0, 1),
            (1, 0, 2, 1),
            (1, 1, 1, 1),
            (1, 3, 2, 0),
            (3, 2, 1, 0),
            (2, 1, 3, 0),
            (2, 2, 2, 0),
        ],
    )


def weak_compression_family(k: int) -> Family:
    """Width-4 family whose last-coordinate residue classes overflow k^2.

    The union of four groups of vectors, all verifying for the uniform
    threshold k:

      (i)   A[1], A[2] in [0, k-1], A[3] >= 2, A[1]+A[2]+A[3] = 2k-2,
            A[4] = k;
      (ii)  (i, k-1-i, k+1, 0) for i in [0, k-1];
      (iii) (k-1, k-1, k, 0);
      (iv)  all vectors of rank 3k-2 with every coordinate in [1, k-1].

    For k >= 3 the count of members with A[4] = 0 (mod k) strictly
    exceeds k^2, which rules out any per-residue-class counting bound of
    k^2 on one coordinate.  At k = 2 the construction degenerates and
    the count is exactly k^2.
    """
    _check_k_w(k, 4, min_k=2)
    vectors: list[Vector] = []
    for a1 in range(k):
        for a2 in range(k):
            a3 = 2 * k - 2 - a1 - a2
            if a3 >= 2:
                vectors.append((a1, a2, a3, k))
    for i in range(k):
        vectors.append((i, k - 1 - i, k + 1, 0))
    vectors.append((k - 1, k - 1, k, 0))
    for body in itertools.product(range(1, k), repeat=4):
        if sum(body) == 3 * k - 2:
            vectors.append(body)
    return Family(4, vectors)


def generalized_product_family(ks) -> Family:
    """Rank-0 box family for per-coordinate thresholds, size prod(ks) / min(ks).

    The first coordinate c with the least threshold balances the rank to
    0, and every other coordinate i is free in [0, ks[i]-1].  Differences
    on the free coordinates never reach the local threshold, so both
    directions of a crossing would have to be witnessed on coordinate c
    at once, which is impossible.

    ks must be a non-empty sequence of positive thresholds, in any order.
    """
    ks = threshold_seq(ks)
    c = ks.index(min(ks))
    vectors = []
    for free in itertools.product(*(range(ki) for ki in ks[:c] + ks[c + 1 :])):
        vectors.append(free[:c] + (-sum(free),) + free[c:])
    return Family(len(ks), vectors)
