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

Verification.  `verify` checks every pair of a family with one bitset
kernel, whatever the family's size.  For each coordinate c it sorts the
distinct values and builds prefix masks: prefix[t] is the bit set of
the indices whose c-value is below the t-th value.  For the vector a at
index i, `bisect` then gives, per coordinate, the indices below a[c],
at or below a[c] - k_c, and below a[c] + k_c; OR-ed and AND-ed over the
coordinates and restricted to the indices after i, these are the later
vectors above a (comparable to it) and those that beat a by k_c on one
coordinate and lose by k_c on another (crossing it).  Only "above" is
needed because `Family.vectors` is lexicographically sorted: a later
vector is never coordinatewise below an earlier one.  `bit_count` gives
the number of violating pairs, and walking the set bits lists them in
(i, j) order.  The masks are Python ints, so the check is exact for
coordinates and thresholds of any size.  For n vectors with D distinct
values per coordinate the masks take about w·D·n/16 bytes (35.8 MiB for
the 15,625 vectors of the k = 5 inductive lift to width 7), and at most
twice that: a mask is as long as its highest index.  `search` builds
its compatibility graph from the same masks, and the package uses no
numpy.
"""

from __future__ import annotations

import itertools
import numbers
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

Vector = tuple[int, ...]


class ParseError(ValueError):
    """Malformed text input; `line` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def _as_vector(v: Sequence[int]) -> Vector:
    vec = tuple(v)
    for c in vec:
        # numbers.Integral covers numpy's integer types as well.
        if type(c) is not int and (
            isinstance(c, bool) or not isinstance(c, numbers.Integral)
        ):
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


def threshold_seq(ks, width: int) -> tuple[int, ...]:
    """Coerce an int or a sequence of ints to per-coordinate thresholds.

    A bare int is taken as the uniform threshold.  A sequence need only
    be positive, in any order.  Anything else, such as a bare bool or
    float, raises ValueError.
    """
    if isinstance(ks, numbers.Integral) and not isinstance(ks, bool):
        seq = (int(ks),) * width
    else:
        try:
            seq = _as_vector(ks)
        except TypeError:  # a bare bool, float or other non-sequence
            raise ValueError(
                f"thresholds must be an int or a sequence of ints, got {ks!r}"
            ) from None
    if len(seq) != width:
        raise ValueError(f"thresholds have width {len(seq)}, expected {width}")
    for k in seq:
        if k < 1:
            raise ValueError(f"thresholds must be >= 1, got {k}")
    return seq


def _nondecreasing_thresholds(ks) -> tuple[int, ...]:
    # A non-empty, positive, nondecreasing sequence, as the generalized
    # product family and its bounds take; a bare int has no width.
    try:
        width = len(ks)
    except TypeError:
        raise ValueError(f"thresholds must be a sequence of ints, got {ks!r}") from None
    seq = threshold_seq(ks, width)
    if not seq or seq != tuple(sorted(seq)):
        raise ValueError(f"thresholds must be non-empty and nondecreasing, got {seq}")
    return seq


def _same_width(a: Sequence[int], b: Sequence[int]) -> None:
    if len(a) != len(b):
        raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")


def is_comparable(a: Sequence[int], b: Sequence[int]) -> bool:
    """True iff a <= b or b <= a in the coordinatewise product order."""
    _same_width(a, b)
    return all(x <= y for x, y in zip(a, b)) or all(x >= y for x, y in zip(a, b))


def is_generalized_crossing(a: Sequence[int], b: Sequence[int], ks) -> bool:
    """True iff a[i] - b[i] >= ks[i] and b[j] - a[j] >= ks[j] for some i, j.

    ks is an int (the uniform threshold) or one threshold per coordinate.
    Symmetric in a and b.  At ks = 1 this is exactly "distinct and
    incomparable"; it is monotone downward in every threshold.
    """
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


def _prefix_masks(column: Sequence[int]) -> tuple[list[int], list[int]]:
    # values: the distinct entries of the column, ascending.  prefix[t]:
    # the bit set of the indices whose entry is below values[t], so
    # prefix[0] is empty and prefix[-1] holds every index.
    values = sorted(set(column))
    bits = dict.fromkeys(values, 0)
    for i, x in enumerate(column):
        bits[x] |= 1 << i
    prefix = [0]
    for x in values:  # popping frees each value's bits once they are in a prefix
        prefix.append(prefix[-1] | bits.pop(x))
    return values, prefix


def verify(family: Family, ks, violation_cap: int = 100) -> VerificationReport:
    """Check a family: antichain? cross-free for ks? ranked?

    ks may be a single int (uniform threshold) or a sequence of positive
    ints.  The flags cover all pairs even when
    the violation list is truncated at `violation_cap`; it keeps the
    first violating pairs (a, b) in the canonical order of a, then of b.
    A negative `violation_cap` raises ValueError.

    One bitset kernel serves every family size; it relies on the
    family's lexicographic order, is exact for ints of any size, and
    its masks take about w·D·n/16 bytes for n vectors with D distinct
    values per coordinate (module docstring, "Verification").
    """
    if violation_cap < 0:
        raise ValueError(f"violation_cap must be nonnegative, got {violation_cap}")
    seq = threshold_seq(ks, family.width)
    vs = family.vectors
    n = len(vs)
    # The last vector has no later partner, so a family of fewer than
    # two vectors needs no tables.
    columns = zip(*vs) if n > 1 else ()
    tables = [(*_prefix_masks(column), k) for column, k in zip(columns, seq)]
    antichain = cross_free = True
    violations: list[tuple[Vector, Vector, str]] = []
    total = 0
    later = (1 << n) - 1
    for a in vs[:-1]:
        later &= later - 1  # drop a's own bit: the indices after a
        lower = pos = 0  # some b[c] < a[c]; some b[c] <= a[c] - k
        short = -1  # every b[c] < a[c] + k
        for (values, prefix, k), x in zip(tables, a):
            lower |= prefix[bisect_left(values, x)]
            pos |= prefix[bisect_right(values, x - k)]
            short &= prefix[bisect_left(values, x + k)]
        # A later b is never below a, because the vectors are sorted
        # lexicographically: so b is comparable to a iff it is above a.
        comparable = later & ~lower
        crossing = later & pos & ~short  # pos already rules out "above"
        if comparable:
            antichain = False
            total += comparable.bit_count()
        if crossing:
            cross_free = False
            total += crossing.bit_count()
        bad = comparable | crossing
        while bad and len(violations) < violation_cap:
            low = bad & -bad
            j = low.bit_length() - 1
            kind = "comparable" if comparable & low else "crossing"
            violations.append((a, vs[j], kind))
            bad ^= low
    ranks = family.rank_values()
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


def _read_text(path) -> str:
    # The text of a file, or of stdin when path is "-".
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(text: str, path) -> None:
    # Write to a file, or to stdout when path is "-".
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_family(path) -> Family:
    """Read a family from a text file, or from stdin when path is "-"."""
    return family_from_text(_read_text(path))


def save_family(family: Family, path) -> None:
    """Write a family to a text file, or to stdout when path is "-"."""
    _write_text(family_to_text(family), path)
