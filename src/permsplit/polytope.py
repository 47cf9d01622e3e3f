"""Exact rational polytope kernel for the permutahedron and its subpolytopes.

No floating point anywhere: coordinates are ints or Fractions.  Linear
systems are solved by the integer fraction-free (Bareiss) Gauss-Jordan
kernel ``matroid._eliminate`` as numerators over one common denominator;
vertex enumeration tests feasibility on those integers and builds Fractions
only for the vertices it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, gcd, lcm

from .errors import DomainError
from .matroid import _eliminate, _matrix_rank_int, is_quotient
from .perm import BruhatInterval, Perm, bruhat_interval, bruhat_leq, perm

Point = tuple  # n exact rationals (ints or Fractions)


@dataclass(frozen=True)
class LinearConstraint:
    """sum of x_i over the support, compared to an exact rational level."""

    support: frozenset[int]
    sense: str  # ">=", "<=", "="
    level: Fraction

    def __post_init__(self):
        if not self.support:
            raise DomainError("constraint support must be nonempty")
        if self.sense not in (">=", "<=", "="):
            raise DomainError(f"unknown sense {self.sense!r}")
        object.__setattr__(self, "support", frozenset(int(i) for i in self.support))
        object.__setattr__(self, "level", Fraction(self.level))


@dataclass(frozen=True)
class Face2D:
    """A 2-face of the permutahedron, given by an ordered set partition.

    Blocks are position sets; the first block carries the largest values.
    Exactly one block of size 3 gives a hexagon, two blocks of size 2 a
    square.  ``lo``/``hi`` are the Bruhat-least and -greatest vertices.
    """

    blocks: tuple[tuple[int, ...], ...]
    shape: str
    lo: Perm
    hi: Perm


@dataclass(frozen=True)
class VertexEnumeration:
    points: tuple[Point, ...]
    diagnostic: str | None = None

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


@lru_cache(maxsize=None)
def permutahedron_vertices(n: int) -> tuple[Perm, ...]:
    if n < 1:
        raise DomainError("need n >= 1")
    return tuple(permutations(range(1, n + 1)))


def permutahedron_facets(n: int) -> tuple[LinearConstraint, ...]:
    """One >=-facet per nonempty proper subset, plus the ambient equality."""
    if n < 2:
        raise DomainError("need n >= 2")
    out = []
    for size in range(1, n):
        for s in combinations(range(1, n + 1), size):
            out.append(
                LinearConstraint(frozenset(s), ">=", Fraction(comb(size + 1, 2)))
            )
    out.append(
        LinearConstraint(frozenset(range(1, n + 1)), "=", Fraction(n * (n + 1) // 2))
    )
    return tuple(out)


@lru_cache(maxsize=None)
def permutahedron_edges(n: int) -> frozenset[frozenset[Perm]]:
    """Vertex pairs differing by a swap of two consecutive values k, k+1."""
    if n < 2:
        raise DomainError("need n >= 2")
    edges = set()
    for p in permutahedron_vertices(n):
        for k in range(1, n):
            i, j = p.index(k), p.index(k + 1)
            q = list(p)
            q[i], q[j] = q[j], q[i]
            edges.add(frozenset({p, tuple(q)}))
    return frozenset(edges)


def _ordered_partitions(positions, sizes):
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for block in combinations(sorted(positions), first):
        remaining = [p for p in positions if p not in block]
        for tail in _ordered_partitions(remaining, rest):
            yield (block,) + tail


def _block_extremes(blocks, n):
    # ascending values inside each block give the Bruhat-least vertex,
    # descending the greatest
    lo, hi = [0] * n, [0] * n
    top = n
    for block in blocks:
        vals = range(top - len(block) + 1, top + 1)
        top -= len(block)
        for pos, up, down in zip(block, vals, reversed(vals)):
            lo[pos - 1], hi[pos - 1] = up, down
    return perm(lo), perm(hi)


@lru_cache(maxsize=None)
def faces_2d(n: int) -> tuple[Face2D, ...]:
    """All 2-faces: ordered set partitions of [n] into n - 2 blocks."""
    if n < 3:
        raise DomainError("need n >= 3")
    positions = tuple(range(1, n + 1))
    profiles = set()
    m = n - 2
    for spot in range(m):  # one block of size 3
        profiles.add(tuple(3 if t == spot else 1 for t in range(m)))
    for a, b in combinations(range(m), 2):  # two blocks of size 2
        profiles.add(tuple(2 if t in (a, b) else 1 for t in range(m)))
    faces = []
    for sizes in sorted(profiles):
        for blocks in _ordered_partitions(positions, sizes):
            shape = "hexagon" if 3 in sizes else "square"
            lo, hi = _block_extremes(blocks, n)
            faces.append(Face2D(blocks=blocks, shape=shape, lo=lo, hi=hi))
    return tuple(faces)


def flag_polytope_vertices(constituents) -> frozenset[Point]:
    """Indicator-vector sums over chains of bases, one basis per constituent."""
    parts = list(constituents)
    if not parts:
        raise DomainError("empty flag")
    n = parts[0].n
    for a, b in zip(parts, parts[1:]):
        if not is_quotient(a, b):
            raise DomainError("consecutive constituents are not quotients")
    base_lists = [sorted(m.bases, key=lambda s: tuple(sorted(s))) for m in parts]
    points = set()

    def rec(level, prev, acc):
        if level == len(parts):
            points.add(tuple(acc))
            return
        for b in base_lists[level]:
            if prev is not None and not prev <= b:
                continue
            nxt = list(acc)
            for i in b:
                nxt[i - 1] += 1
            rec(level + 1, b, nxt)

    rec(0, None, [0] * n)
    return frozenset(points)


def is_bip(points) -> BruhatInterval | None:
    """Recognize a point set as a full Bruhat interval.

    Lexicographic order extends Bruhat order (a cover swaps an ascent, so it
    raises the first value that changes), so an interval's bottom and top
    are its lexicographically least and greatest points; the set is an
    interval iff those two span one that reproduces it exactly.  Every
    point must be a permutation, and all of one size.
    """
    pts = {tuple(p) for p in points}
    if not pts:
        return None
    lo, hi = perm(min(pts)), perm(max(pts))
    if bruhat_leq(lo, hi) and pts == set(bruhat_interval(lo, hi)):
        return BruhatInterval(lo, hi)  # so every point is a permutation
    if len({len(perm(p)) for p in pts}) > 1:  # perm raises on a non-permutation
        raise DomainError("points of different sizes")
    return None


# --- exact vertex enumeration ------------------------------------------------


def _solve_square(rows, rhs, n):
    """Unique solution of an n x n integer system, or None when singular.

    Returns (numerators, positive denominator): x_i = numerators[i] / den.
    """
    pivots, red = _eliminate([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    den = red[0][0]
    sign = 1 if den > 0 else -1
    return tuple(sign * row[n] for row in red), sign * den


def affine_rank(points) -> int:
    """Dimension of the affine span of exact points."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    if len(pts) < 2:
        return 0
    base = pts[0]
    rows = []
    for p in pts[1:]:
        diff = [x - y for x, y in zip(p, base)]
        den = lcm(*(f.denominator for f in diff)) if diff else 1
        rows.append([int(f * den) for f in diff])
    return _matrix_rank_int(rows)


def enumerate_vertices(constraints, n: int) -> VertexEnumeration:
    """Exact vertex set of the polytope described by the constraints.

    Every equality is always tight; candidate vertices come from making
    (n - rank of equalities) inequalities tight and solving exactly.
    Singular selections are skipped, some without solving (a support chosen
    twice, or with its complement under the ambient equality); solutions
    violating any constraint are dropped; the surviving points are
    deduplicated and sorted.
    """
    cons = list(constraints)
    eq_rows, eq_rhs = [], []
    ineqs = []
    for c in cons:
        den = c.level.denominator
        row = [den if i in c.support else 0 for i in range(1, n + 1)]
        rhs = c.level.numerator
        if c.sense == "=":
            eq_rows.append(row)
            eq_rhs.append(rhs)
        else:
            ineqs.append((c, row, rhs))

    # (support, level) -> int comparisons for the feasibility filter
    checks = []
    for c in cons:
        idx = tuple(i - 1 for i in sorted(c.support))
        checks.append((idx, c.sense, c.level.numerator, c.level.denominator))

    # keep an independent subset of the equality rows so redundant copies of
    # the ambient equality cannot make every candidate system non-square
    kept_rows, kept_rhs = [], []
    for row, rhs in zip(eq_rows, eq_rhs):
        if _matrix_rank_int(kept_rows + [row]) > len(kept_rows):
            kept_rows.append(row)
            kept_rhs.append(rhs)
    eq_rows, eq_rhs = kept_rows, kept_rhs

    full = frozenset(range(1, n + 1))
    ambient = any(c.sense == "=" and c.support == full for c in cons)
    k = n - len(eq_rows)
    found = set()
    for chosen in combinations(range(len(ineqs)), k):
        supports = {ineqs[t][0].support for t in chosen}
        if len(supports) < k:
            continue  # same support twice can never be simultaneously tight
        if ambient and any(full - s in supports for s in supports):
            continue  # the ambient row is a combination of the rows of S and [n] - S
        rows = eq_rows + [ineqs[t][1] for t in chosen]
        rhs = eq_rhs + [ineqs[t][2] for t in chosen]
        solved = _solve_square(rows, rhs, n)
        if solved is None:
            continue
        nums, den = solved
        ok = True
        for idx, sense, num, level_den in checks:
            lhs = sum(nums[i] for i in idx) * level_den
            rhs_v = num * den
            if sense == ">=":
                ok = lhs >= rhs_v
            elif sense == "<=":
                ok = lhs <= rhs_v
            else:
                ok = lhs == rhs_v
            if not ok:
                break
        if ok:
            g = gcd(den, *nums)
            found.add((tuple(x // g for x in nums), den // g))
    points = tuple(sorted(
        tuple(x // den if x % den == 0 else Fraction(x, den) for x in nums)
        for nums, den in found
    ))
    if not points:
        return VertexEnumeration(points=(), diagnostic="empty-or-unbounded")
    return VertexEnumeration(points=points)


def is_permutation_point(p: Point) -> bool:
    vals = []
    for x in p:
        f = Fraction(x)
        if f.denominator != 1:
            return False
        vals.append(f.numerator)
    return sorted(vals) == list(range(1, len(vals) + 1))


# --- JSON forms -------------------------------------------------------------


def point_to_json(p: Point) -> list[str]:
    return [str(Fraction(x)) for x in p]
