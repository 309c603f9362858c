"""Vectors, families, crossing predicates, and verification.

The basic objects are points of the integer grid Z^w ("vectors", plain
int tuples) and finite sets of vectors of one common width ("families").
Everything else is built from two pairwise predicates:

* comparability in the product order (a <= b coordinatewise), and
* crossing at thresholds ks: a[i] - b[i] >= ks[i] on some coordinate i
  while b[j] - a[j] >= ks[j] on another.

A family is an antichain when no two distinct members are comparable,
and cross-free for ks when no pair is ks-crossing.  Two distinct
vectors are incomparable exactly when they are 1-crossing, so the
families of interest sit strictly between "antichain" (1-crossing
everywhere) and "no k-crossing anywhere".

Coordinates are 1-based in all user-facing text, error messages, and
file I/O; internally tuples are indexed the normal 0-based way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

Vector = tuple[int, ...]

# Pair counts above this trigger the blocked numpy verification path.
_NUMPY_VERIFY_CELLS = 1_000_000


class ParseError(ValueError):
    """Malformed text input; `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def _as_vector(v: Sequence[int]) -> Vector:
    vec = tuple(v)
    for c in vec:
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
            raise ValueError(f"vector coordinates must be integers, got {c!r}")
    return tuple(int(c) for c in vec)


def rank(v: Sequence[int]) -> int:
    """Sum of coordinates."""
    return sum(v)


class Family:
    """A set of distinct vectors of one width, kept lexicographically sorted.

    The sorted order is canonical: iteration, equality, hashing, and the
    text format all use it.  Duplicate vectors are rejected rather than
    collapsed, since the quantities of interest count distinct vectors
    and silently dropping a duplicate would mask a caller bug.
    """

    __slots__ = ("_width", "_vectors", "_set")

    def __init__(self, width: int, vectors: Iterable[Sequence[int]] = ()):
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        vs = [_as_vector(v) for v in vectors]
        seen: set[Vector] = set()
        for v in vs:
            if len(v) != width:
                raise ValueError(
                    f"vector {v} has width {len(v)}, family width is {width}"
                )
            if v in seen:
                raise ValueError(f"duplicate vector {v}")
            seen.add(v)
        self._width = width
        self._vectors = tuple(sorted(vs))
        self._set = frozenset(seen)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence[int]]) -> "Family":
        """Build a family, inferring the width from the first vector."""
        vs = [tuple(v) for v in vectors]
        if not vs:
            raise ValueError("cannot infer width from an empty collection")
        return cls(len(vs[0]), vs)

    @property
    def width(self) -> int:
        return self._width

    @property
    def vectors(self) -> tuple[Vector, ...]:
        return self._vectors

    def translate(self, offsets: Sequence[int]) -> "Family":
        """Shift coordinate i of every vector by offsets[i]."""
        off = _as_vector(offsets)
        if len(off) != self._width:
            raise ValueError(
                f"offsets have width {len(off)}, family width is {self._width}"
            )
        return Family(
            self._width,
            [tuple(c + o for c, o in zip(v, off)) for v in self._vectors],
        )

    def rank_values(self) -> frozenset[int]:
        return frozenset(sum(v) for v in self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)

    def __iter__(self) -> Iterator[Vector]:
        return iter(self._vectors)

    def __contains__(self, v: object) -> bool:
        return v in self._set

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return self._width == other._width and self._vectors == other._vectors

    def __hash__(self) -> int:
        return hash((self._width, self._vectors))

    def __repr__(self) -> str:
        return f"Family(width={self._width}, size={len(self._vectors)})"


@dataclass(frozen=True)
class CrossingThresholds:
    """Per-coordinate crossing thresholds, 1 <= ks[0] <= ... <= ks[w-1].

    The nondecreasing order is a canonical presentation (coordinates can
    always be permuted to sort the thresholds); the predicates below
    also accept raw positive-int sequences when a non-sorted order is
    genuinely meant.
    """

    ks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ks", _as_vector(self.ks))
        if not self.ks:
            raise ValueError("thresholds must be non-empty")
        for k in self.ks:
            if k < 1:
                raise ValueError(f"thresholds must be >= 1, got {k}")
        if any(a > b for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError(f"thresholds must be nondecreasing, got {self.ks}")

    @classmethod
    def uniform(cls, k: int, w: int) -> "CrossingThresholds":
        if w < 1:
            raise ValueError(f"width must be >= 1, got {w}")
        return cls((k,) * w)

    @property
    def width(self) -> int:
        return len(self.ks)

    @property
    def is_uniform(self) -> bool:
        return len(set(self.ks)) == 1

    def __len__(self) -> int:
        return len(self.ks)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ks)

    def __getitem__(self, i: int) -> int:
        return self.ks[i]


def threshold_seq(ks, width: int) -> tuple[int, ...]:
    """Coerce an int, sequence, or CrossingThresholds to per-coordinate ints.

    A bare int is taken as the uniform threshold.  Raw sequences are only
    required to be positive (sortedness is a property of the canonical
    CrossingThresholds type, not of the predicates).
    """
    if isinstance(ks, CrossingThresholds):
        seq = ks.ks
    elif isinstance(ks, (int, np.integer)) and not isinstance(ks, bool):
        seq = (int(ks),) * width
    else:
        seq = _as_vector(ks)
    if len(seq) != width:
        raise ValueError(f"thresholds have width {len(seq)}, expected {width}")
    for k in seq:
        if k < 1:
            raise ValueError(f"thresholds must be >= 1, got {k}")
    return seq


def _same_width(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")


def is_comparable(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff a <= b or b <= a in the coordinatewise product order."""
    _same_width(a, b)
    return all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b))


def is_k_crossing(a: Sequence[int], b: Sequence[int], k: int) -> bool:
    """True iff a[i] - b[i] >= k and b[j] - a[j] >= k for some i, j.

    Symmetric in a and b.  At k = 1 this is exactly "distinct and
    incomparable"; it is monotone downward in k.
    """
    _same_width(a, b)
    if k < 1:
        raise ValueError(f"threshold must be >= 1, got {k}")
    return any(x - y >= k for x, y in zip(a, b)) and any(
        y - x >= k for x, y in zip(a, b)
    )


def is_generalized_crossing(a: Sequence[int], b: Sequence[int], ks) -> bool:
    """True iff a[i] - b[i] >= ks[i] and b[j] - a[j] >= ks[j] for some i, j."""
    _same_width(a, b)
    seq = threshold_seq(ks, len(a))
    return any(x - y >= k for x, y, k in zip(a, b, seq)) and any(
        y - x >= k for x, y, k in zip(a, b, seq)
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a family against thresholds.

    `violations` holds offending pairs (a, b, kind) with a < b in the
    canonical order and kind one of "comparable" / "crossing"; the list
    is capped, with `violations_truncated` set when pairs were dropped.
    The boolean flags are always computed over all pairs.
    """

    size: int
    is_antichain: bool
    is_cross_free: bool
    is_ranked: bool
    rank_values: frozenset[int]
    violations: tuple[tuple[Vector, Vector, str], ...]
    violations_truncated: bool

    @property
    def ok(self) -> bool:
        """Antichain and cross-free: the family verifies."""
        return self.is_antichain and self.is_cross_free


def _pair_kind(a: Vector, b: Vector, seq: tuple[int, ...]) -> str | None:
    a_le_b = True
    b_le_a = True
    pos = False
    neg = False
    for x, y, k in zip(a, b, seq):
        d = x - y
        if d > 0:
            a_le_b = False
        elif d < 0:
            b_le_a = False
        if d >= k:
            pos = True
        elif -d >= k:
            neg = True
    if a_le_b or b_le_a:
        return "comparable"
    if pos and neg:
        return "crossing"
    return None


def _verify_small(vs, seq, cap):
    antichain = True
    cross_free = True
    violations = []
    total = 0
    for i in range(len(vs)):
        a = vs[i]
        for j in range(i + 1, len(vs)):
            kind = _pair_kind(a, vs[j], seq)
            if kind is None:
                continue
            if kind == "comparable":
                antichain = False
            else:
                cross_free = False
            total += 1
            if len(violations) < cap:
                violations.append((a, vs[j], kind))
    return antichain, cross_free, violations, total


def _verify_blocked(vs, seq, cap):
    # Blocked pairwise comparison; per-pair semantics identical to
    # _pair_kind, kept in sync by the randomized equivalence tests.
    coords = np.asarray(vs, dtype=np.int64)
    ks_arr = np.asarray(seq, dtype=np.int64)
    n, w = coords.shape
    antichain = True
    cross_free = True
    violations: list[tuple[Vector, Vector, str]] = []
    total = 0
    cols = np.arange(n)[None, :]
    block = max(1, _NUMPY_VERIFY_CELLS // max(1, n * w))
    for i0 in range(0, n, block):
        i1 = min(n, i0 + block)
        d = coords[i0:i1, None, :] - coords[None, :, :]
        comparable = (d <= 0).all(axis=2) | (d >= 0).all(axis=2)
        crossing = (d >= ks_arr).any(axis=2) & (d <= -ks_arr).any(axis=2)
        upper = cols > np.arange(i0, i1)[:, None]
        comparable &= upper
        crossing &= upper
        if comparable.any():
            antichain = False
        if crossing.any():
            cross_free = False
        bad = comparable | crossing
        total += int(bad.sum())
        if len(violations) < cap and bad.any():
            for bi, j in np.argwhere(bad):
                if len(violations) >= cap:
                    break
                a = vs[i0 + bi]
                b = vs[j]
                kind = "comparable" if comparable[bi, j] else "crossing"
                violations.append((a, b, kind))
    return antichain, cross_free, violations, total


def verify(family: Family, ks, violation_cap: int = 100) -> VerificationReport:
    """Check a family: antichain? cross-free for ks? ranked?

    ks may be a single int (uniform threshold), a sequence of positive
    ints, or a CrossingThresholds.  The flags cover all pairs even when
    the violation list is truncated at `violation_cap`.
    """
    seq = threshold_seq(ks, family.width)
    vs = family.vectors
    ranks = family.rank_values()
    n = len(vs)
    use_numpy = n * n * family.width >= _NUMPY_VERIFY_CELLS and all(
        abs(c) < 2**31 for v in vs for c in v
    )
    check = _verify_blocked if use_numpy else _verify_small
    antichain, cross_free, violations, total = check(vs, seq, violation_cap)
    return VerificationReport(
        size=n,
        is_antichain=antichain,
        is_cross_free=cross_free,
        is_ranked=len(ranks) <= 1,
        rank_values=ranks,
        violations=tuple(violations),
        violations_truncated=total > len(violations),
    )


def dual_orders_check(family: Family, fixed: Iterable[int] = ()) -> list[Vector]:
    """Label an antichain that is constant on all but two coordinates.

    `fixed` lists the w - 2 constant coordinates (1-based).  On the two
    free coordinates an antichain is forced into dual linear orders, so
    there is a labeling A_1, ..., A_n strictly increasing on the first
    free coordinate and strictly decreasing on the second; it is
    returned as a list.  The two extremes of a labeling of size n are
    necessarily (n-1)-crossing, which is what makes long such
    configurations impossible in cross-free families.

    Raises ValueError if `fixed` has the wrong size, the family is not
    constant on a fixed coordinate, or the family is not an antichain.
    """
    w = family.width
    fixed_list = sorted({int(i) for i in fixed})
    for i in fixed_list:
        if not 1 <= i <= w:
            raise ValueError(f"fixed coordinate {i} out of range 1..{w}")
    if len(fixed_list) != w - 2:
        raise ValueError(
            f"need exactly {w - 2} fixed coordinates for width {w}, "
            f"got {len(fixed_list)}"
        )
    vs = list(family)
    if len(vs) <= 1:
        return vs
    first = vs[0]
    for i in fixed_list:
        for v in vs:
            if v[i - 1] != first[i - 1]:
                raise ValueError(
                    f"vectors disagree on fixed coordinate {i}: {v} vs {first}"
                )
    for a, b in itertools.combinations(vs, 2):
        if is_comparable(a, b):
            raise ValueError(f"not an antichain: {a} and {b} are comparable")
    free = [i - 1 for i in range(1, w + 1) if i not in fixed_list]
    j0, j1 = free
    vs.sort(key=lambda v: v[j0])
    # Forced by incomparability once the fixed coordinates agree.
    for a, b in zip(vs, vs[1:]):
        if not (a[j0] < b[j0] and a[j1] > b[j1]):
            raise RuntimeError(
                f"{a} and {b} are not in dual orders on the free coordinates"
            )
    return vs


# ---------------------------------------------------------------------------
# Text format: '#' comments, a 'w <width>' header, then one vector per line
# as w space-separated signed integers.  Output is canonical (sorted), so
# write-read-write round-trips are bit-exact.


def family_to_text(family: Family) -> str:
    lines = [f"w {family.width}"]
    lines.extend(" ".join(str(c) for c in v) for v in family)
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> Family:
    width: int | None = None
    vectors: list[Vector] = []
    seen: dict[Vector, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if width is None:
            if len(parts) != 2 or parts[0] != "w":
                raise ParseError("expected header 'w <width>'", lineno)
            try:
                width = int(parts[1])
            except ValueError:
                raise ParseError(f"bad width {parts[1]!r}", lineno) from None
            if width < 1:
                raise ParseError(f"width must be >= 1, got {width}", lineno)
            continue
        if len(parts) != width:
            raise ParseError(
                f"expected {width} integers, got {len(parts)}", lineno
            )
        try:
            vec = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(f"bad integer in {line!r}", lineno) from None
        if vec in seen:
            raise ParseError(
                f"duplicate vector {vec} (first seen on line {seen[vec]})", lineno
            )
        seen[vec] = lineno
        vectors.append(vec)
    if width is None:
        raise ParseError("empty input: missing 'w <width>' header")
    return Family(width, vectors)


def load_family(path) -> Family:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_text(fh.read())


def save_family(family: Family, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(family_to_text(family))
