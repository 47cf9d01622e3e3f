"""Hyperplane splits of the permutahedron into Bruhat interval polytopes.

Three families of level sets of facet normals produce good splits:

* low prefix sums   x_1 + ... + x_j = j(j+1)/2 + 1          (j <= n - 2)
* high prefix sums  x_1 + ... + x_j = n + ... + (n-j+2) + (n-j)
* single coordinates x_1 = r and x_n = r                     (2 <= r <= n-1)

A level of x_S strictly inside its range is a good split exactly when no
2-face forbids it: a square forbids the levels that cut it strictly, a
hexagon those that leave its Bruhat extremes ``lo`` and ``hi`` not strictly
on opposite sides.  An edge moves x_S by 0 or 1, so it cuts no integer level.

Lemma.  Let k = |S|; call S *mid* when a position of S has positions outside
S on both sides, and *outer* when a position outside S has positions of S on
both sides.  Squares forbid t = r + v + w + 1, for w >= v + 2 and r a sum of
k - 2 values outside {v, v+1, w, w+1}.  Hexagons forbid t = r + v + 1 if S is
mid, r a sum of k - 1 values outside {v, v+1, v+2}, and t = r + 2v + 2 if S
is outer, r a sum of k - 2 values outside {v, v+1, v+2}.

Proof.  A 2-face is an ordered set partition into n - 2 blocks, one of size 3
(a hexagon) or two of size 2 (a square).  Each block carries a run of
consecutive values in every order over its positions, so x_S is r, the
values S takes in singleton blocks, plus what S takes in the larger blocks.
A 2-block on {w, w+1} adds w or w + 1 when S takes one of its positions and
a constant otherwise, so a square on {v, v+1} and {w, w+1} is cut strictly,
at r + v + w + 1 only, exactly when S takes one position of each 2-block.  On a hexagon with
positions a < b < c and values v..v+2, S taking {b} puts lo and hi both at
the middle level r + v + 1, and {a, c} both at r + 2v + 2; {a}, {c}, {a, b}
and {b, c} put them strictly on opposite sides of the one level cut; none or
all leaves x_S constant.  Any positions can carry a block, any run of values
can be its values, and the singleton blocks take the other values in any
order, so each level listed occurs once S has the positions its pattern
needs: 2 <= k <= n - 2 for a square, mid for {b}, outer for {a, c}.

>>> _open_levels(4, (1, 2))
[4, 6]
>>> _verdict(4, {3}, 3)
'bad-hexagon'

``check_split`` reads the verdict from the lemma, names the first offending
2-face of a bad split and gives a good one the closed-form cells of
``predicted_cells``; ``verify`` and the tests compare those with the two
closed sides.  ``exhaustive_scan`` must recover exactly the families above.

Within the ambient hyperplane sum(x) = n(n+1)/2, the supports S and [n]-S
with complementary levels describe the same hyperplane; SplitHyperplane
normalizes to the representative with the smaller (|S|, sorted S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .errors import DomainError
from .lpm import flag_of_interval
from .perm import MAX_INTERVAL_N, BruhatInterval, dual_interval, identity, longest, set_sequences
from .polytope import Face2D, faces_2d

# largest n that exhaustive_scan accepts: the scan lists all 2^(n-1) canonical
# supports, which took 8.6 s at n=20 and 41 s at n=22 on a 2-core machine
MAX_SCAN_N = 22


def _support_bounds(n: int, size: int) -> tuple[int, int]:
    # min and max of x_S over the permutahedron
    return comb(size + 1, 2), sum(range(n - size + 1, n + 1))


@dataclass(frozen=True)
class SplitHyperplane:
    """x_S = level, normalized across the ambient complement S <-> [n] - S."""

    n: int
    support: frozenset[int]
    level: int

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise DomainError("need n >= 1")
        s = frozenset(int(i) for i in self.support)
        if not s or not s < frozenset(range(1, n + 1)):
            raise DomainError(f"support must be a nonempty proper subset of [{n}]")
        level = self.level
        if isinstance(level, bool) or int(level) != level:
            raise DomainError(f"level must be an integer, got {level!r}")
        level = int(level)
        comp = frozenset(range(1, n + 1)) - s
        total = n * (n + 1) // 2
        if (len(comp), tuple(sorted(comp))) < (len(s), tuple(sorted(s))):
            s, level = comp, total - level
        lo, hi = _support_bounds(n, len(s))
        if not lo <= level <= hi:
            raise DomainError(
                f"level {level} outside [{lo}, {hi}] for a support of size {len(s)}"
            )
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "level", level)

    def __str__(self):
        return hyperplane_text(self)

    def sort_key(self):
        return len(self.support), tuple(sorted(self.support)), self.level


def hyperplane_text(h: SplitHyperplane) -> str:
    terms = "+".join(f"x{i}" for i in sorted(h.support))
    return f"{terms}={h.level}"


def hyperplane_to_json(h: SplitHyperplane) -> dict:
    return {"S": sorted(h.support), "alpha": h.level}


@dataclass(frozen=True)
class SplitReport:
    """Outcome of checking one hyperplane against the permutahedron.

    ``cells`` is ordered (cell containing the identity, cell containing the
    longest permutation); ``lpfm`` holds the two flag verdicts in the same
    order.  ``reason`` explains not-a-split outcomes.
    """

    verdict: str  # "good-split" | "bad-square" | "bad-hexagon" | "not-a-split"
    cells: tuple[BruhatInterval, BruhatInterval] | None = None
    offending_face: Face2D | None = None
    lpfm: tuple[bool, bool] | None = None
    reason: str | None = None


@lru_cache(maxsize=None)
def _families(n: int) -> dict[SplitHyperplane, tuple[str, int, int]]:
    """Every good-split hyperplane, labelled (family, arg, level).

    Coordinates go in first, so the prefix families at j = 1, which coincide
    with coordinate instances, keep the label "coordinate".
    """
    table = {}
    for r in range(2, n):
        for i in (1, n):
            h = SplitHyperplane(n=n, support=frozenset({i}), level=r)
            table[h] = ("coordinate", i, r)
    for j in range(1, n - 1):
        prefix = frozenset(range(1, j + 1))
        for family, level in (
            ("prefix-low", comb(j + 1, 2) + 1),
            ("prefix-high", sum(range(n - j + 2, n + 1)) + (n - j)),
        ):
            h = SplitHyperplane(n=n, support=prefix, level=level)
            table.setdefault(h, (family, j, level))
    return table


def theorem_hyperplanes(n: int) -> tuple[SplitHyperplane, ...]:
    """The full list of good-split hyperplanes, deduplicated."""
    if n < 3:
        raise DomainError("need n >= 3")
    return tuple(sorted(_families(n), key=SplitHyperplane.sort_key))


def _subset_sums(values, m: int) -> int:
    """Bitset of the sums of m distinct elements of values (bit s for sum s)."""
    rows = [1] + [0] * m  # rows[j]: the sums of j of the values seen so far
    for x in values:
        for j in range(m, 0, -1):
            rows[j] |= rows[j - 1] << x
    return rows[m] if m >= 0 else 0


@lru_cache(maxsize=None)
def _forbidden_levels(n: int, k: int, mid: bool, outer: bool):
    """Bitsets (bit t for level t) of the levels that squares and that
    hexagons forbid for a support of class (k, mid, outer); see the lemma."""
    squares = hexagons = 0
    for v in range(1, n - 2):
        for w in range(v + 2, n):
            rest = [x for x in range(1, n + 1) if x not in (v, v + 1, w, w + 1)]
            squares |= _subset_sums(rest, k - 2) << v + w + 1
    for v in range(1, n - 1):
        rest = [x for x in range(1, n + 1) if not v <= x <= v + 2]
        if mid:
            hexagons |= _subset_sums(rest, k - 1) << v + 1
        if outer:
            hexagons |= _subset_sums(rest, k - 2) << 2 * v + 2
    return squares, hexagons


def _support_class(n: int, support) -> tuple[int, bool, bool]:
    """(k, mid, outer) of a nonempty proper support: S is mid when [n] - S
    is not a run of positions, and outer when S is not."""
    outside = [p for p in range(1, n + 1) if p not in support]
    k = len(support)
    return k, outside[-1] - outside[0] >= n - k, max(support) - min(support) >= k


def _verdict(n: int, support, level: int) -> str:
    """Verdict of x_S = level, read from the class of S."""
    lo, hi = _support_bounds(n, len(support))
    if not lo < level < hi:
        return "not-a-split"
    squares, hexagons = _forbidden_levels(n, *_support_class(n, support))
    if squares >> level & 1:
        return "bad-square"
    if hexagons >> level & 1:
        return "bad-hexagon"
    return "good-split"


def _offending_face(n: int, support: frozenset[int], level: int, verdict: str) -> Face2D:
    """The first face in ``faces_2d`` order of the verdict's shape that
    forbids the level.  S must take some but not all positions of each
    larger block; then a square forbids the level its lo and hi average to,
    and a hexagon the level at which both its lo and hi sit."""
    idx = [i - 1 for i in support]
    for face in faces_2d(n):
        if verdict != "bad-" + face.shape or not all(
            0 < len(support.intersection(b)) < len(b) for b in face.blocks if len(b) > 1
        ):
            continue
        x_lo, x_hi = sum(face.lo[i] for i in idx), sum(face.hi[i] for i in idx)
        if (x_lo + x_hi == 2 * level) if face.shape == "square" else (x_lo == x_hi == level):
            return face
    raise RuntimeError(f"no 2-face of Π_{n} forbids the level {level} ({verdict})")


def _require_good(h: SplitHyperplane) -> None:
    verdict = _verdict(h.n, h.support, h.level)
    if verdict != "good-split":
        raise DomainError(f"{h} is not a good split (verdict {verdict})")


def check_split(h: SplitHyperplane) -> SplitReport:
    """Classify the split induced by h; all failures are verdicts.

    A good split gets the closed-form ``predicted_cells``.  A bad split names
    its first offending face in ``faces_2d(n)``, so n <= MAX_INTERVAL_N.
    """
    n, level = h.n, h.level
    if n > MAX_INTERVAL_N:  # the bad path builds faces_2d(n)
        raise DomainError(f"check_split needs n <= {MAX_INTERVAL_N}, got n={n}")
    verdict = _verdict(n, h.support, level)
    if verdict == "not-a-split":
        return SplitReport(verdict=verdict, reason="a strict side is empty")
    if verdict != "good-split":
        face = _offending_face(n, h.support, level, verdict)
        return SplitReport(verdict=verdict, offending_face=face)
    cells = predicted_cells(h)
    if cells is None:
        # unreachable: the tests find the good verdicts are the families at n=3..12
        raise RuntimeError(f"{h} is a good split outside the theorem's families")
    lpfm = tuple(flag_of_interval(cell)[1] for cell in cells)
    return SplitReport(verdict="good-split", cells=cells, lpfm=lpfm)


def predicted_cells(h: SplitHyperplane):
    """Closed-form (identity cell, top cell) for recognized hyperplanes.

    Prefix-low with width j removes A = {1, ..., j-1, j+1}: the cells are
    [e, dec(A)+w_A] and [inc(A)+e_A, w].  Prefix-high is the dual of
    prefix-low of the same width.  Coordinate hyperplanes x_1 = r give
    [e, r+w_r] and [r+e_r, w]; x_n = r gives [e, w_r+r] and [e_r+r, w],
    where the identity sits in the x_n >= r cell.
    """
    kind = _families(h.n).get(h)
    if kind is None:
        return None
    n = h.n
    family, arg, level = kind
    e, w = identity(n), longest(n)
    if family == "prefix-low":
        a = set(range(1, arg)) | {arg + 1}
        inc, dec, e_rest, w_rest = set_sequences(a, n)
        return (
            BruhatInterval(e, dec + w_rest),
            BruhatInterval(inc + e_rest, w),
        )
    if family == "prefix-high":
        low_twin = SplitHyperplane(
            n=n, support=frozenset(range(1, arg + 1)), level=comb(arg + 1, 2) + 1
        )
        lo_cell, hi_cell = predicted_cells(low_twin)
        return (dual_interval(hi_cell), dual_interval(lo_cell))
    i, r = arg, level
    _, _, e_rest, w_rest = set_sequences({r}, n)
    if i == 1:
        return (
            BruhatInterval(e, (r,) + w_rest),
            BruhatInterval((r,) + e_rest, w),
        )
    return (
        BruhatInterval(e, w_rest + (r,)),
        BruhatInterval(e_rest + (r,), w),
    )


def dual_hyperplane(h: SplitHyperplane) -> SplitHyperplane:
    """Hyperplane whose split cells are the duals of h's cells.

    The pointwise complement x -> (n+1, ..., n+1) - x maps x_S = a onto
    x_S = |S|(n+1) - a, so duality keeps the support and complements the
    level.  Only defined for good splits.
    """
    _require_good(h)
    return SplitHyperplane(
        n=h.n, support=h.support, level=len(h.support) * (h.n + 1) - h.level
    )


def _open_levels(n: int, support) -> list[int]:
    """Levels strictly inside the range of x_S that no 2-face forbids."""
    lo, hi = _support_bounds(n, len(support))
    squares, hexagons = _forbidden_levels(n, *_support_class(n, support))
    forbidden = squares | hexagons
    return [t for t in range(lo + 1, hi) if not forbidden >> t & 1]


def _canonical_supports(n: int):
    """The supports SplitHyperplane keeps; [n] - S gives the same hyperplanes."""
    for size in range(1, n // 2 + 1):
        for s in combinations(range(1, n + 1), size):
            if 2 * size < n or s[0] == 1:
                yield s


def exhaustive_scan(n: int) -> tuple[SplitHyperplane, ...]:
    """Every (support, level) whose verdict is good-split, canonically sorted.

    The same class lemma as ``check_split``, read once per support for every
    integer level, building no faces and no cells.  Integer levels suffice: the
    middle cell of a split contains permutation vertices, which pins x_S to
    an integer, and every half-integer level is cut by an edge.
    """
    if not 3 <= n <= MAX_SCAN_N:
        raise DomainError(f"exhaustive_scan needs 3 <= n <= {MAX_SCAN_N}, got n={n}")
    good = [
        SplitHyperplane(n=n, support=frozenset(s), level=t)
        for s in _canonical_supports(n)
        for t in _open_levels(n, s)
    ]
    return tuple(sorted(good, key=SplitHyperplane.sort_key))
