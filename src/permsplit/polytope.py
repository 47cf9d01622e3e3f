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
from math import comb, gcd
from operator import eq, ge, le, mul

from .errors import DomainError
from .matroid import _eliminate, _integer_rows, _matrix_rank_int, is_quotient
from .perm import (MAX_LATTICE_N, BruhatInterval, Perm, _proved_interval, bruhat_interval,
                   bruhat_leq, perm)

Point = tuple  # n exact rationals (ints or Fractions)

_SENSES = {">=": ge, "<=": le, "=": eq}


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
    points: tuple[Point, ...]  # empty when the system has no vertex

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
    """Indicator-vector sums over chains of bases, one basis per constituent.

    Chains grow one constituent at a time, as ``lpm.lpm_bases`` grows paths;
    a partial chain is kept as (its last basis, its sum so far), which is all
    that its extensions read.  Every point has n coordinates, so n is bounded
    by MAX_LATTICE_N, as the quotient tests bound it.
    """
    parts = list(constituents)
    if not parts:
        raise DomainError("empty flag")
    n = parts[0].n
    for a, b in zip(parts, parts[1:]):
        if not is_quotient(a, b):
            raise DomainError("consecutive constituents are not quotients")
    if n > MAX_LATTICE_N:  # a flag of two or more met the same bound in is_quotient
        raise DomainError(f"flag polytopes need n <= {MAX_LATTICE_N}, got n={n}")
    chains = {(frozenset(), (0,) * n)}
    for m in parts:
        chains = {(b, tuple(x + (i in b) for i, x in enumerate(acc, 1)))
                  for prev, acc in chains for b in m.bases if prev <= b}
    return frozenset(acc for _, acc in chains)


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
        return _proved_interval(lo, hi)  # so every point is a permutation
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
    pts = list(points)
    return _matrix_rank_int(_integer_rows([x - y for x, y in zip(p, pts[0])] for p in pts[1:]))


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
    # one integer form per constraint, den * x_S against num for the level
    # num / den: its row and right-hand side serve the solves and the test
    forms = [
        (_SENSES[c.sense], [c.level.denominator if i in c.support else 0 for i in range(1, n + 1)],
         c.level.numerator)
        for c in cons
    ]
    # keep an independent subset of the equality rows so redundant copies of
    # the ambient equality cannot make every candidate system non-square
    eq_rows, eq_rhs, ineqs = [], [], []
    for c, (_, row, rhs) in zip(cons, forms):
        if c.sense != "=":
            ineqs.append((c.support, row, rhs))
        elif _matrix_rank_int(eq_rows + [row]) > len(eq_rows):
            eq_rows.append(row)
            eq_rhs.append(rhs)

    full = frozenset(range(1, n + 1))
    ambient = any(c.sense == "=" and c.support == full for c in cons)
    k = n - len(eq_rows)
    found = set()
    for chosen in combinations(ineqs, k):
        supports = {s for s, _, _ in chosen}
        if len(supports) < k:
            continue  # same support twice can never be simultaneously tight
        if ambient and any(full - s in supports for s in supports):
            continue  # the ambient row is a combination of the rows of S and [n] - S
        solved = _solve_square(eq_rows + [row for _, row, _ in chosen],
                               eq_rhs + [rhs for _, _, rhs in chosen], n)
        if solved is None:
            continue
        nums, den = solved  # den > 0, so the comparisons keep their sense
        if all(holds(sum(map(mul, row, nums)), rhs * den) for holds, row, rhs in forms):
            g = gcd(den, *nums)
            found.add((tuple(x // g for x in nums), den // g))
    return VertexEnumeration(points=tuple(sorted(
        tuple(x // den if x % den == 0 else Fraction(x, den) for x in nums)
        for nums, den in found
    )))


def is_permutation_point(p: Point) -> bool:
    return sorted(p) == list(range(1, len(p) + 1))  # a non-integer Fraction equals no int


# --- JSON forms -------------------------------------------------------------


def point_to_json(p: Point) -> list[str]:
    return [str(Fraction(x)) for x in p]
