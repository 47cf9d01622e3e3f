"""Hyperplane splits of the permutahedron into Bruhat interval polytopes.

Three families of level sets of facet normals produce good splits:

* low prefix sums   x_1 + ... + x_j = j(j+1)/2 + 1          (j <= n - 2)
* high prefix sums  x_1 + ... + x_j = n + ... + (n-j+2) + (n-j)
* single coordinates x_1 = r and x_n = r                     (2 <= r <= n-1)

``check_split`` verifies a candidate geometrically: one sweep over the
2-faces of Π_n gives the verdict, and only a good split has its two cells
built.  ``predicted_cells`` gives the closed-form interval pair for
recognized family members.  ``exhaustive_scan`` reads the same sweep once per
support for every integer level and must recover exactly the families above.

Within the ambient hyperplane sum(x) = n(n+1)/2, the supports S and [n]-S
with complementary levels describe the same hyperplane; SplitHyperplane
normalizes to the representative with the smaller (|S|, sorted S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter

from .errors import DomainError
from .lpm import _flag_of_members
from .perm import BruhatInterval, dual_interval, identity, longest, set_sequences
from .polytope import Face2D, _interval_members, faces_2d, permutahedron_vertices

# largest n that exhaustive_scan accepts: n=7 takes seconds, n=8 has 11x its 2-faces
MAX_SCAN_N = 7


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


def hyperplane_from_json(doc: dict, n: int) -> SplitHyperplane:
    try:
        return SplitHyperplane(n=n, support=frozenset(doc["S"]), level=int(doc["alpha"]))
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed hyperplane document: {exc}") from exc


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


@lru_cache(maxsize=None)
def _sweep_tables(n: int):
    """Π_n by vertex index: value columns, and each square and hexagon as its
    index in ``faces_2d`` with a getter that reads the face's values from a
    list in vertex order; a hexagon's getter yields its ``lo`` and ``hi``
    values first."""
    perms = permutahedron_vertices(n)
    index = {p: k for k, p in enumerate(perms)}
    squares, hexagons = [], []
    for k, face in enumerate(faces_2d(n)):
        verts = [index[p] for p in face.vertices]
        if face.shape == "square":
            squares.append((k, itemgetter(*verts)))
        else:
            hexagons.append((k, itemgetter(index[face.lo], index[face.hi], *verts)))
    return tuple(zip(*perms)), tuple(squares), tuple(hexagons)


def _values(n: int, support) -> list[int]:
    """x_S at every vertex of Π_n, in ``permutahedron_vertices`` order."""
    columns = _sweep_tables(n)[0]
    return list(map(sum, zip(*(columns[i - 1] for i in support))))


def _face_cuts(n: int, support):
    """(level, verdict, index in ``faces_2d``) for each 2-face forbidding a level.

    A square forbids the levels that cut it strictly, a hexagon those of
    them that leave its ``lo`` and ``hi`` not strictly on opposite sides.
    Squares come first, then hexagons, each in ``faces_2d`` order.  No edge
    needs a test: it moves x_S by 0 or 1, so it cuts no integer level.
    """
    _, squares, hexagons = _sweep_tables(n)
    vals = _values(n, support)
    for k, get in squares:
        fv = get(vals)
        for t in range(min(fv) + 1, max(fv)):
            yield t, "bad-square", k
    for k, get in hexagons:
        fv = get(vals)
        for t in range(min(fv) + 1, max(fv)):
            if (fv[0] - t) * (fv[1] - t) >= 0:
                yield t, "bad-hexagon", k


def _verdict(n: int, support, level: int) -> tuple[str, int | None]:
    """Verdict of x_S = level, with the first offending face's index."""
    lo, hi = _support_bounds(n, len(support))
    if not lo < level < hi:
        return "not-a-split", None
    cuts = ((v, k) for t, v, k in _face_cuts(n, support) if t == level)
    return next(cuts, ("good-split", None))


def _require_good(h: SplitHyperplane) -> None:
    verdict, _ = _verdict(h.n, h.support, h.level)
    if verdict != "good-split":
        raise DomainError(f"{h} is not a good split (verdict {verdict})")


def check_split(h: SplitHyperplane) -> SplitReport:
    """Classify the split induced by h; all failures are verdicts.

    Cells are built for a good split only; the face conditions make each
    closed side a Bruhat interval.
    """
    n, level = h.n, h.level
    verdict, k = _verdict(n, h.support, level)
    if verdict == "not-a-split":
        return SplitReport(verdict=verdict, reason="a strict side is empty")
    if verdict != "good-split":
        return SplitReport(verdict=verdict, offending_face=faces_2d(n)[k])
    pairs = list(zip(permutahedron_vertices(n), _values(n, h.support)))
    side_a = _interval_members([p for p, v in pairs if v <= level])
    side_b = _interval_members([p for p, v in pairs if v >= level])
    if side_a is None or side_b is None:
        # the 2-face conditions characterize interval sides; this is unreachable
        raise RuntimeError(
            f"face conditions passed but a side of x_S={level} is not an interval"
        )
    e = identity(n)
    (e_cell, e_members), (w_cell, w_members) = (
        (side_a, side_b) if side_a[0].lo == e else (side_b, side_a)
    )
    if e_cell.lo != e or w_cell.hi != longest(n):
        raise RuntimeError("split cells are not anchored at the identity and top")
    _, lpfm_e = _flag_of_members(n, e_members)
    _, lpfm_w = _flag_of_members(n, w_members)
    return SplitReport(
        verdict="good-split", cells=(e_cell, w_cell), lpfm=(lpfm_e, lpfm_w)
    )


def _classify(h: SplitHyperplane):
    """(family, arg, level) of h among the three families, or None."""
    return _families(h.n).get(h)


def predicted_cells(h: SplitHyperplane):
    """Closed-form (identity cell, top cell) for recognized hyperplanes.

    Prefix-low with width j removes A = {1, ..., j-1, j+1}: the cells are
    [e, dec(A)+w_A] and [inc(A)+e_A, w].  Prefix-high is the dual of
    prefix-low of the same width.  Coordinate hyperplanes x_1 = r give
    [e, r+w_r] and [r+e_r, w]; x_n = r gives [e, w_r+r] and [e_r+r, w],
    where the identity sits in the x_n >= r cell.
    """
    kind = _classify(h)
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
    forbidden = {t for t, _, _ in _face_cuts(n, support)}
    return [t for t in range(lo + 1, hi) if t not in forbidden]


def exhaustive_scan(n: int) -> tuple[SplitHyperplane, ...]:
    """Every (support, level) whose verdict is good-split, canonically sorted.

    The same 2-face tests as ``check_split``, swept once per support over
    every integer level, building no cells.  Integer levels suffice: the
    middle cell of a split contains permutation vertices, which pins x_S to
    an integer, and every half-integer level is cut by an edge.
    """
    if not 3 <= n <= MAX_SCAN_N:
        raise DomainError(f"exhaustive_scan needs 3 <= n <= {MAX_SCAN_N}, got n={n}")
    # only the supports SplitHyperplane keeps; [n] - S gives the same hyperplanes
    good = [
        SplitHyperplane(n=n, support=frozenset(s), level=t)
        for size in range(1, n // 2 + 1)
        for s in combinations(range(1, n + 1), size)
        if 2 * size < n or s[0] == 1
        for t in _open_levels(n, s)
    ]
    return tuple(sorted(good, key=SplitHyperplane.sort_key))
