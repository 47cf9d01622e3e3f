"""Hyperplane splits of the permutahedron into Bruhat interval polytopes.

Three families of level sets of facet normals produce good splits:

* low prefix sums   x_1 + ... + x_j = j(j+1)/2 + 1          (j <= n - 2)
* high prefix sums  x_1 + ... + x_j = n + ... + (n-j+2) + (n-j)
* single coordinates x_1 = r and x_n = r                     (2 <= r <= n-1)

``check_split`` verifies a candidate geometrically; ``predicted_cells`` gives
the closed-form interval pair for recognized family members;
``exhaustive_scan`` sweeps every support and level and must recover exactly
the families above.

Within the ambient hyperplane sum(x) = n(n+1)/2, the supports S and [n]-S
with complementary levels describe the same hyperplane; SplitHyperplane
normalizes to the representative with the smaller (|S|, sorted S).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb
from operator import itemgetter

from .errors import DomainError
from .lpm import flag_of_interval
from .perm import (
    BruhatInterval,
    Perm,
    dual_interval,
    identity,
    longest,
    set_sequences,
)
from .polytope import Face2D, faces_2d, is_bip, permutahedron_edges, permutahedron_vertices

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


def _split_verdict(n: int, support: frozenset[int], level) -> SplitReport:
    perms = permutahedron_vertices(n)
    vals = {p: sum(p[i - 1] for i in support) for p in perms}

    below = [p for p in perms if vals[p] < level]
    above = [p for p in perms if vals[p] > level]
    if not below or not above:
        return SplitReport(verdict="not-a-split", reason="a strict side is empty")

    for edge in permutahedron_edges(n):
        p, q = tuple(edge)
        if (vals[p] - level) * (vals[q] - level) < 0:
            return SplitReport(
                verdict="not-a-split",
                reason=f"edge {p}-{q} crosses the hyperplane strictly",
            )

    split_hexagons = []
    for face in faces_2d(n):
        fvals = [vals[v] for v in face.vertices]
        cut = any(v < level for v in fvals) and any(v > level for v in fvals)
        if not cut:
            continue
        if face.shape == "square":
            return SplitReport(verdict="bad-square", offending_face=face)
        split_hexagons.append(face)
    for face in split_hexagons:
        if (vals[face.lo] - level) * (vals[face.hi] - level) >= 0:
            return SplitReport(verdict="bad-hexagon", offending_face=face)

    on = [p for p in perms if vals[p] == level]
    side_a = is_bip(below + on)
    side_b = is_bip(above + on)
    if side_a is None or side_b is None:
        # the 2-face conditions characterize interval sides; this is unreachable
        raise RuntimeError(
            f"face conditions passed but a side of x_S={level} is not an interval"
        )
    e = identity(n)
    e_cell, w_cell = (side_a, side_b) if side_a.lo == e else (side_b, side_a)
    if e_cell.lo != e or w_cell.hi != longest(n):
        raise RuntimeError("split cells are not anchored at the identity and top")
    _, lpfm_e = flag_of_interval(e_cell)
    _, lpfm_w = flag_of_interval(w_cell)
    return SplitReport(
        verdict="good-split", cells=(e_cell, w_cell), lpfm=(lpfm_e, lpfm_w)
    )


def check_split(h: SplitHyperplane) -> SplitReport:
    """Classify the split induced by h; all failures are verdicts."""
    return _split_verdict(h.n, h.support, h.level)


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
    report = check_split(h)
    if report.verdict != "good-split":
        raise DomainError(f"{h} is not a good split (verdict {report.verdict})")
    return SplitHyperplane(
        n=h.n, support=h.support, level=len(h.support) * (h.n + 1) - h.level
    )


@lru_cache(maxsize=None)
def _sweep_tables(n: int):
    """Π_n by vertex index: value columns, edges as index pairs, and a getter
    per square and hexagon that reads the face's values from a list in vertex
    order; a hexagon's getter yields its ``lo`` and ``hi`` values first."""
    perms = permutahedron_vertices(n)
    index = {p: k for k, p in enumerate(perms)}
    edges = tuple(tuple(index[p] for p in e) for e in permutahedron_edges(n))
    squares, hexagons = [], []
    for face in faces_2d(n):
        verts = [index[p] for p in face.vertices]
        if face.shape == "square":
            squares.append(itemgetter(*verts))
        else:
            hexagons.append(itemgetter(index[face.lo], index[face.hi], *verts))
    return tuple(zip(*perms)), edges, tuple(squares), tuple(hexagons)


def _open_levels(n: int, support) -> list[int]:
    """Doubled levels strictly inside the range of x_S that no face forbids.

    One pass over 2x_S marks forbidden levels in a difference array: an edge
    or a square forbids the open range of its values, a hexagon the part of
    it where ``lo`` and ``hi`` are not strictly on opposite sides.
    """
    columns, edges, squares, hexagons = _sweep_tables(n)
    vals = [2 * v for v in map(sum, zip(*(columns[i - 1] for i in support)))]
    lo, hi = _support_bounds(n, len(support))
    diff = [0] * (2 * hi + 1)
    for a, b in edges:  # values 2 apart at most: only the half level between
        if vals[a] != vals[b]:
            mid = (vals[a] + vals[b]) // 2
            diff[mid] += 1
            diff[mid + 1] -= 1
    for get in squares:
        fv = get(vals)
        low, top = min(fv), max(fv)
        if low < top:
            diff[low + 1] += 1
            diff[top] -= 1
    for get in hexagons:
        fv = get(vals)
        low, top = min(fv), max(fv)
        x, y = sorted(fv[:2])
        if low < x:  # levels low+1 .. x leave lo and hi on one side
            diff[low + 1] += 1
            diff[x + 1] -= 1
        if y < top:  # and so do levels y .. top-1
            diff[y] += 1
            diff[top] -= 1
    counts = list(accumulate(diff))
    return [t for t in range(2 * lo + 1, 2 * hi) if not counts[t]]


def exhaustive_scan(n: int, include_half_levels: bool = False) -> tuple[SplitHyperplane, ...]:
    """Every (support, level) whose verdict is good-split, canonically sorted.

    A verdict-only sweep in integers: it tests the same edges and 2-faces as
    ``check_split`` but builds no cells.  Integer levels suffice: the middle
    cell of a split contains permutation vertices, which pins x_S to an
    integer.  ``include_half_levels`` checks that claim directly and raises
    if a half-integer level passes every face test.
    """
    if not 3 <= n <= MAX_SCAN_N:
        raise DomainError(f"exhaustive_scan needs 3 <= n <= {MAX_SCAN_N}, got n={n}")
    good = []
    for size in range(1, n):
        for s in combinations(range(1, n + 1), size):
            for t in _open_levels(n, s):
                if t % 2 == 0:
                    good.append(SplitHyperplane(n=n, support=frozenset(s), level=t // 2))
                elif include_half_levels:
                    raise RuntimeError(f"non-integer level {t}/2 on {s} gave a good split")
    return tuple(sorted(set(good), key=SplitHyperplane.sort_key))
