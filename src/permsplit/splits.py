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

Theorem.  Let k = |S|, let lo and hi be the least and greatest x_S, and
lo < t < hi.  Then x_S = t is a bad square when 2 <= k <= n - 2 and
lo + 2 <= t <= hi - 2, else a good split when S is a prefix {1..k} or a
suffix {n-k+1..n}, else a bad hexagon.  A suffix gives the hyperplanes of
the complementary prefix, whose open levels are lo + 1 and hi - 1, or all
for k = 1 or n - 1: the three families above are every good split, for all n.

Proof.  Squares: by the lemma with A = R + {v, w}, a square forbids t exactly
when t - 1 is the sum of a k-set A with two *free* elements, a with a + 1 in
[n] - A: the tops of A's runs but one ending at n.  Two runs and two values
outside A need 2 <= k <= n - 2; then {1..k-1, k+1} has the least sum, lo + 1.
Moving a free a to a + 1 adds 1 to the sum and costs at most the free element
a, when {a} is a whole run; so a move keeps two free elements unless A is
{n-k-1, n-k+1, n-k+3..n}, of sum hi - 3, where every walk of moves ends: the
sums fill lo + 1 .. hi - 3.  Hexagons: a prefix or suffix is neither mid nor
outer, so the lemma gives it no hexagon level; any other S is one or both.
A mid S gets lo + 1 from v = k and r = 1 + ... + (k-1), an outer S from
v = k - 1 and r = 1 + ... + (k-2), and hi - 1 follows by the map
x -> (n+1) - x, which sends 2-faces to 2-faces of the same shape and x_S = t
to x_S = k(n+1) - t.  At k = 1, S is mid and t = v + 1 covers 2..n-1; at
k = n - 1, S is outer and t = n(n+1)/2 - v - 1 covers lo + 1 .. hi - 1.

>>> _open_levels(4, (1, 2)), _verdict(4, {3}, 3)
([4, 6], 'bad-hexagon')
>>> [_verdict(200, range(1, 101), t) for t in (5050, 5051, 5052, 15049)]
['not-a-split', 'good-split', 'bad-square', 'good-split']
>>> _verdict(200, set(range(2, 102)), 5051)
'bad-hexagon'
>>> exhaustive_scan(200) == theorem_hyperplanes(200)
True

``check_split`` reads the verdict from the theorem, names a bad split's first
offending 2-face and gives a good one the closed-form ``predicted_cells``,
which ``verify`` and the tests compare with the two closed sides.

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

# largest n that exhaustive_scan and theorem_hyperplanes accept: `split scan -n 1000
# --format json` took 1.1-1.7 s and 110 MB on a 2-core machine, growing as n^2 (4n
# hyperplanes hold their supports), and `split theorem -n 1000` 22 s and 260 MB
MAX_SCAN_N = 1000


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


@lru_cache(maxsize=2)  # a stream alternating two n keeps its hits; a large n's O(n^2) table leaves
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
    """The full list of good-split hyperplanes, deduplicated, with the bound of
    :func:`exhaustive_scan`, which lists the same hyperplanes."""
    if not 3 <= n <= MAX_SCAN_N:
        raise DomainError(f"theorem_hyperplanes needs 3 <= n <= {MAX_SCAN_N}, got n={n}")
    return tuple(sorted(_families(n), key=SplitHyperplane.sort_key))


def _forbidden(n: int, support) -> tuple[int, int, range, bool]:
    """(lo, hi, levels squares forbid, whether hexagons forbid the rest) of x_S."""
    k = len(support)
    lo, hi = _support_bounds(n, k)
    squares = range(lo + 2, hi - 1) if 2 <= k <= n - 2 else range(hi, hi)
    return lo, hi, squares, not (max(support) == k or min(support) == n - k + 1)


def _verdict(n: int, support, level: int) -> str:
    """Verdict of x_S = level."""
    lo, hi, squares, hexagons = _forbidden(n, support)
    if not lo < level < hi:
        return "not-a-split"
    if level in squares:
        return "bad-square"
    return "bad-hexagon" if hexagons else "good-split"


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
    cells = predicted_cells(h)  # by the theorem, h is in a family
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
    lo, hi, squares, hexagons = _forbidden(n, support)
    return [] if hexagons else [*range(lo + 1, squares.start), *range(squares.stop, hi)]


def _canonical_supports(n: int):
    """The supports SplitHyperplane keeps; [n] - S gives the same hyperplanes."""
    for size in range(1, n // 2 + 1):
        for s in combinations(range(1, n + 1), size):
            if 2 * size < n or s[0] == 1:
                yield s


def exhaustive_scan(n: int) -> tuple[SplitHyperplane, ...]:
    """Every (support, level) whose verdict is good-split, canonically sorted.

    By the theorem only prefixes and suffixes have open levels, and a suffix
    cuts as its complementary prefix, so the scan reads the open levels of
    the n - 1 prefixes and builds no faces and no cells.  Integer levels
    suffice: the middle cell of a split contains permutation vertices, which
    pins x_S to an integer, and every half-integer level is cut by an edge.
    """
    if not 3 <= n <= MAX_SCAN_N:
        raise DomainError(f"exhaustive_scan needs 3 <= n <= {MAX_SCAN_N}, got n={n}")
    good = [
        SplitHyperplane(n=n, support=frozenset(range(1, k + 1)), level=t)
        for k in range(1, n)
        for t in _open_levels(n, range(1, k + 1))
    ]
    return tuple(sorted(good, key=SplitHyperplane.sort_key))
