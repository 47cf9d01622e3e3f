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
>>> _first_face(1000, frozenset({1, 2}), 5, "bad-square").blocks[-3:]
((998,), (1, 999), (2, 1000))

``check_split`` reads the verdict from the theorem.  A good split gets the
closed-form ``predicted_cells``, whose two cells are LPM flags by the paper's
theorem; ``verify`` and the tests compare them with the two closed sides and
run ``flag_of_interval`` on them.  A bad split names its first offending
2-face, which ``_first_face`` builds without listing the faces:

Witness.  ``polytope.faces_2d`` lists the block profiles (block sizes, the
first block on the largest values) in sorted order: a square's by the values
{w, w+1} of its upper 2-block ascending, then {v, v+1} of its lower one, and
a hexagon's by v ascending.  Within a profile it lists the faces by
(block 1, block 2, ...), each block an ascending tuple of positions,
lexicographically.  By the lemma's proof, a face of the verdict's shape
forbids t exactly when each larger block meets S in an allowed pattern (one
of a 2-block's positions; the middle, or the outer two, of a 3-block's) and
the singleton values S takes sum to t less the larger blocks' share (v + w +
1; v + 1 or 2v + 2).  So, given the blocks chosen so far, a face extending
them exists exactly when some pattern of each larger block left (i) fits the
free positions and (ii) leaves c of the singleton values left summing to
what is left of t, c being the free positions in S less those the patterns
take: singletons take the free positions in any order, and two 2-blocks
that each fit, with c >= 0 and as many singletons outside S, fit together.
Taking each block in turn as the least tuple with such a completion then
gives the first face of the profile, since an earlier face would agree on
the blocks before some block and have there a lesser tuple with one.  A
hexagon's two patterns take different shares, so each is built on its own
and the lesser face kept.  Once a larger block is placed, what is left to
fit is at most a 2-block, which (ii) already provides for, so a larger block
takes its pattern's least tuple, the leftmost embedding; a singleton's test
(ii) reads only whether its position is in S, so (i) alone picks among the
free positions of each kind, in ascending order.  For (ii): c values of a
run of integers sum to every integer from the c least to the c greatest;
from runs A < B, taking x values from A, both bounds fall as x grows, so the
last x whose greatest sum reaches t decides; a third run, the shortest, is
counted out first.  The first profile: (v, w) has such a face iff t - 1 - v
- w is a sum of k - 2 values off {v, v+1, w, w+1}, that is, iff a k-set A
of sum t - 1 holds w but not w + 1 and a value below w whose successor it
does not hold.  Some v serves a given w iff A's x >= 1 values below w are not
the run ending at w - 1; their sums then fill the least to one below the
greatest, and with the values above w + 1, both bounds fall as x grows.

Within the ambient hyperplane sum(x) = n(n+1)/2, the supports S and [n]-S
with complementary levels describe the same hyperplane; SplitHyperplane
keeps the side that :func:`_canonical` admits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DomainError
from .perm import BruhatInterval, _proved_interval, identity, longest
from .polytope import Face2D, _block_extremes

# largest n that exhaustive_scan, theorem_hyperplanes and check_split accept: `split
# scan -n 1000 --format json` took 1.1-1.7 s and 110 MB on a 2-core machine, growing as
# n^2 (4n hyperplanes hold their supports), `split theorem -n 1000` 3.5-6.5 s and 256 MB
# (5.2-6.8 s and 396 MB with --format json), and the slowest of 40 bad `split check
# -n 1000` 1.7 s
MAX_SCAN_N = 1000


def _support_bounds(n: int, size: int) -> tuple[int, int]:
    # min and max of x_S over the permutahedron
    return comb(size + 1, 2), sum(range(n - size + 1, n + 1))


def _canonical(n: int, support) -> bool:
    """Whether S, a nonempty proper subset of [n], is the side of S <-> [n] - S
    that hyperplanes keep: 2|S| < n, or 2|S| = n and 1 in S.  This is the side
    with the smaller (|S|, sorted S): of two complements of equal size, exactly
    one holds 1, and its sorted tuple is the smaller."""
    return (2 * len(support), 1 not in support) <= (n, False)


@dataclass(frozen=True)
class SplitHyperplane:
    """x_S = level, normalized across the ambient complement S <-> [n] - S to
    the side :func:`_canonical` admits.

    Membership in [n] is read from the bounds of S, and [n] - S is built only
    when it is the side kept, where n <= 2|S|: the cost follows the support's
    size, not n.
    """

    n: int
    support: frozenset[int]
    level: int

    def __post_init__(self):
        n = self.n
        s = frozenset(map(int, self.support))
        if not 0 < len(s) < n or min(s) < 1 or max(s) > n:
            raise DomainError(f"support must be a nonempty proper subset of [{n}]")
        level = self.level
        if isinstance(level, bool) or int(level) != level:
            raise DomainError(f"level must be an integer, got {level!r}")
        level = int(level)
        if not _canonical(n, s):
            s, level = frozenset(range(1, n + 1)) - s, n * (n + 1) // 2 - level
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
    order, both true by the paper's theorem.  ``reason`` explains not-a-split outcomes.
    """

    verdict: str  # "good-split" | "bad-square" | "bad-hexagon" | "not-a-split"
    cells: tuple[BruhatInterval, BruhatInterval] | None = None
    offending_face: Face2D | None = None
    lpfm: tuple[bool, bool] | None = None
    reason: str | None = None


def _families(n: int) -> dict[SplitHyperplane, tuple[str, int, int]]:
    """Every good-split hyperplane, labelled (family, arg, level): the list of
    :func:`theorem_hyperplanes`, and the reference labels of :func:`_label`.

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


def _label(h: SplitHyperplane) -> tuple[str, int, int] | None:
    """``_families(h.n).get(h)``: None unless ``_verdict`` finds a good split,
    else its family, named from the support and level alone.

    A good split is a coordinate {1} or {n}, or else a prefix or a suffix at
    lo + 1 or hi - 1 of its range (squares forbid the levels between).  A
    normalized support keeps a prefix {1..j} when j <= n - j and turns a
    longer one into the suffix {j+1..n} at the complementary level, which
    swaps the prefix's lo + 1 and hi - 1.
    """
    n, s, t = h.n, h.support, h.level
    if _verdict(n, s, t) != "good-split":
        return None
    k = len(s)
    if k == 1:
        return "coordinate", min(s), t
    lo, hi = _support_bounds(n, k)
    if max(s) == k:  # the prefix {1..k}
        return "prefix-low" if t == lo + 1 else "prefix-high", k, t
    # the suffix {n-k+1..n}: the prefix {1..n-k} at total - t
    return "prefix-low" if t == hi - 1 else "prefix-high", n - k, n * (n + 1) // 2 - t


def theorem_hyperplanes(n: int) -> tuple[SplitHyperplane, ...]:
    """The full list of good-split hyperplanes, deduplicated: the paper's three
    families, with the bound of :func:`exhaustive_scan`.  The two are each
    other's reference: the scan reads the same hyperplanes off the
    classification, and ``verify`` and the tests compare them."""
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


def _tri(a: int, b: int) -> int:
    """a + (a + 1) + ... + b, or 0 when b = a - 1."""
    return (a + b) * (b - a + 1) // 2


def _meets(least, most, i: int, j: int, lo: int, hi: int) -> bool:
    """Whether [least(x), most(x)] meets [lo, hi] for some i <= x <= j, where
    least and most both fall as x grows: the last x with most(x) >= lo has
    the least least(x) of those."""
    x = i - 1 + bisect_right(range(i, j + 1), -lo, key=lambda x: -most(x))
    return x >= i and least(x) <= hi


def _reaches(runs, c: int, lo: int, hi: int) -> bool:
    """Whether c distinct values from ``runs``, at most three disjoint runs
    (a, b) of integers in ascending order, can sum into [lo, hi]."""
    runs = [r for r in runs if r[0] <= r[1]]
    if len(runs) == 3:  # count the shortest run out; two remain
        s = min(range(3), key=lambda i: runs[i][1] - runs[i][0])
        (a, b), rest = runs[s], runs[:s] + runs[s + 1 :]
        return any(_reaches(rest, c - x, lo - _tri(b - x + 1, b), hi - _tri(a, a + x - 1))
                   for x in range(min(c, b - a + 1) + 1))
    (a, b), (p, q) = ([(1, 0)] * 2 + runs)[-2:]
    return _meets(
        lambda x: _tri(a, a + x - 1) + _tri(p, p + c - x - 1),
        lambda x: _tri(b - x + 1, b) + _tri(q - c + x + 1, q),
        max(0, c - (q - p + 1)), min(c, b - a + 1), lo, hi,
    )


def _embed(pattern, free, support) -> tuple[int, ...] | None:
    """The least ascending tuple of free positions, in S exactly where the
    pattern says (its leftmost embedding), or None."""
    it = iter(free)
    pos = tuple(next((p for p in it if (p in support) == inside), None) for inside in pattern)
    return None if None in pos else pos


def _profiles(n: int, support: frozenset[int], level: int, square: bool) -> list:
    """The first block profile of the shape with a face that forbids the
    level, once for each way its larger blocks may meet S there: ({block
    index: (value run, membership patterns, positions in S)}, the level left
    for the singletons)."""
    k = len(support)
    if square:
        t = level - 1
        w = next(w for w in range(3, n) if _meets(  # x values of A below w
            lambda x: w + _tri(1, x) + _tri(w + 2, w + k - x),
            lambda x: w + _tri(w - x, w - 1) - 1 + _tri(n - k + x + 2, n),
            max(1, k - n + w), min(w - 2, k - 1), t, t,
        ))
        v = next(v for v in range(1, w - 1) if _reaches(
            ((1, v - 1), (v + 2, w - 1), (w + 2, n)), k - 2, t - v - w, t - v - w))
        pair = ((True, False), (False, True))
        return [({n - 1 - w: ((w, w + 1), pair, 1), n - 2 - v: ((v, v + 1), pair, 1)}, t - v - w)]
    mid, outer = (False, True, False), (True, False, True)  # a 3-block's patterns
    for v in range(1, n - 1):
        found = [
            ({n - 2 - v: ((v, v + 2), (pattern,), ins)}, level - share)
            for pattern, ins, share in ((mid, 1, v + 1), (outer, 2, 2 * v + 2))
            if _embed(pattern, range(1, n + 1), support)
            and _reaches(((1, v - 1), (v + 3, n)), k - ins, level - share, level - share)
        ]
        if found:
            return found


def _first_face(n: int, support: frozenset[int], level: int, verdict: str) -> Face2D:
    """The first face in ``faces_2d`` order of the verdict's shape that
    forbids the level, built block by block (see Witness above)."""
    faces = []
    for big, left in _profiles(n, support, level, verdict == "bad-square"):
        free, blocks, top = list(range(1, n + 1)), [], n
        c = len(support) - sum(ins for _, _, ins in big.values())  # S's singletons left
        for j in range(n - 2):
            if j in big:
                (a, top), patterns, _ = big.pop(j)
                pos = min(filter(None, (_embed(pattern, free, support) for pattern in patterns)))
            else:  # the least position that leaves a completion
                a, edges = top, [0, *(e for r, _, _ in sorted(big.values()) for e in r), top]
                runs = [(x + 1, y - 1) for x, y in zip(edges[::2], edges[1::2])]
                ok = [_reaches(runs, c - i, left - a * i, left - a * i) for i in (0, 1)]
                pos = next((p,) for p in free if ok[p in support] and all(
                    any(_embed(pattern, [q for q in free if q != p], support) for pattern in patterns)
                    for _, patterns, _ in big.values()
                ))
                left, c = left - a * (pos[0] in support), c - (pos[0] in support)
            blocks.append(pos)
            free, top = [p for p in free if p not in pos], a - 1
        faces.append(tuple(blocks))
    blocks = min(faces)
    return Face2D(blocks, verdict.removeprefix("bad-"), *_block_extremes(blocks, n))


def _require_good(h: SplitHyperplane) -> None:
    verdict = _verdict(h.n, h.support, h.level)
    if verdict != "good-split":
        raise DomainError(f"{h} is not a good split (verdict {verdict})")


def check_split(h: SplitHyperplane) -> SplitReport:
    """Classify the split induced by h; all failures are verdicts.

    A good split gets the closed-form ``predicted_cells``, LPM flags by the
    paper's theorem; a bad split its first offending face in ``faces_2d``
    order, built by ``_first_face``.
    """
    if h.n > MAX_SCAN_N:
        raise DomainError(f"check_split needs n <= {MAX_SCAN_N}, got n={h.n}")
    verdict = _verdict(h.n, h.support, h.level)
    if verdict == "not-a-split":
        return SplitReport(verdict=verdict, reason="a strict side is empty")
    if verdict != "good-split":
        face = _first_face(h.n, h.support, h.level, verdict)
        return SplitReport(verdict=verdict, offending_face=face)
    return SplitReport(verdict=verdict, cells=predicted_cells(h), lpfm=(True, True))


def predicted_cells(h: SplitHyperplane):
    """Closed-form (identity cell, top cell) for recognized hyperplanes.

    Prefix-low with width j removes A = {1, ..., j-1, j+1}: the cells are
    [e, dec(A)+w_A] and [inc(A)+e_A, w], where inc/dec list A up/down and
    e_A/w_A are e and w with the values of A deleted.  Prefix-high of width j
    gives their duals [hi*, lo*], where u* = (n+1) - u entrywise, the sides
    swapped.  Coordinate hyperplanes x_1 = r give [e, r+w_r] and [r+e_r, w];
    x_n = r gives [e, w_r+r] and [e_r+r, w], where the identity sits in the
    x_n >= r cell.  Each is a Bruhat interval by the theorem, so the cells
    skip ``BruhatInterval``'s order check.
    """
    kind = _label(h)
    if kind is None:
        return None
    n, (family, j, r) = h.n, kind  # j: the prefix's width, or the coordinate
    if family == "prefix-low":
        top = (j + 1, *range(j - 1, 0, -1), *range(n, j + 1, -1), j)
        bottom = (*range(1, j), j + 1, j, *range(j + 2, n + 1))
    elif family == "prefix-high":
        top = (*range(n, n - j + 1, -1), n - j, n - j + 1, *range(n - j - 1, 0, -1))
        bottom = (n - j, *range(n - j + 2, n + 1), *range(1, n - j), n - j + 1)
    else:
        down, up = (*range(n, r, -1), *range(r - 1, 0, -1)), (*range(1, r), *range(r + 1, n + 1))
        top, bottom = ((r, *down), (r, *up)) if j == 1 else ((*down, r), (*up, r))
    return _proved_interval(identity(n), top), _proved_interval(bottom, longest(n))


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
    """The supports SplitHyperplane keeps, those that :func:`_canonical`
    admits; [n] - S gives the same hyperplanes."""
    return (s for k in range(1, n) for s in combinations(range(1, n + 1), k) if _canonical(n, s))


def exhaustive_scan(n: int) -> tuple[SplitHyperplane, ...]:
    """Every (support, level) whose verdict is good-split, canonically sorted.

    By the theorem only prefixes and suffixes have open levels, and a suffix
    cuts as its complementary prefix, so the scan reads the open levels of
    the n - 1 prefixes and builds no faces and no cells.  Integer levels
    suffice: the middle cell of a split contains permutation vertices, which
    pins x_S to an integer, and every half-integer level is cut by an edge.
    :func:`theorem_hyperplanes`, the paper's list, is its reference.
    """
    if not 3 <= n <= MAX_SCAN_N:
        raise DomainError(f"exhaustive_scan needs 3 <= n <= {MAX_SCAN_N}, got n={n}")
    good = [
        SplitHyperplane(n=n, support=frozenset(range(1, k + 1)), level=t)
        for k in range(1, n)
        for t in _open_levels(n, range(1, k + 1))
    ]
    return tuple(sorted(good, key=SplitHyperplane.sort_key))
