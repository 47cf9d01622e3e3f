"""Matroids on [n] stored extensionally by their bases.

Derived data (rank function, circuits, flats) is computed on demand and
memoized; everything stays exact and hashable.  Ground sets are canonical
[n] = {1, ..., n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain as _chain
from itertools import combinations
from math import lcm

from .errors import DomainError, ExchangeAxiomError, _json_fraction, _json_int


@dataclass(frozen=True)
class SetMatroid:
    """Matroid given by its bases.  Build through :func:`matroid_from_bases`."""

    n: int
    bases: frozenset[frozenset[int]]
    rank: int

    def ground(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def sorted_bases(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(b)) for b in self.bases)


def powerset(iterable):
    s = list(iterable)
    return _chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def exchange_violation(bases):
    """First (B1, B2, x) witnessing an exchange failure, or None.

    Iteration is over sorted bases so the witness is deterministic.
    """
    blist = sorted(bases, key=lambda b: tuple(sorted(b)))
    bset = set(bases)
    for b1 in blist:
        for b2 in blist:
            for x in sorted(b1 - b2):
                if not any((b1 - {x}) | {y} in bset for y in b2 - b1):
                    return b1, b2, x
    return None


def matroid_from_bases(n: int, bases) -> SetMatroid:
    """Validate the exchange axiom and equal cardinalities, then wrap."""
    bset = frozenset(frozenset(b) for b in bases)
    if not bset:
        raise DomainError("a matroid needs at least one basis")
    ground = frozenset(range(1, n + 1))
    for b in bset:
        if not b <= ground:
            raise DomainError(f"basis {sorted(b)} not a subset of [{n}]")
    sizes = {len(b) for b in bset}
    if len(sizes) != 1:
        raise DomainError(f"bases of unequal sizes: {sorted(sizes)}")
    witness = exchange_violation(bset)
    if witness is not None:
        raise ExchangeAxiomError(*witness)
    return SetMatroid(n=n, bases=bset, rank=sizes.pop())


def matroid_rank(m: SetMatroid, subset) -> int:
    """rank(S) = max over bases of |B & S|."""
    s = frozenset(subset)
    return max(len(b & s) for b in m.bases)


def is_independent(m: SetMatroid, subset) -> bool:
    s = frozenset(subset)
    return any(s <= b for b in m.bases)


@lru_cache(maxsize=None)
def circuits(m: SetMatroid) -> frozenset[frozenset[int]]:
    """Minimal dependent subsets, by size-increasing sweep."""
    found: list[frozenset[int]] = []
    for size in range(1, m.n + 1):
        for c in combinations(range(1, m.n + 1), size):
            cs = frozenset(c)
            if is_independent(m, cs):
                continue
            if any(circ < cs for circ in found):
                continue
            found.append(cs)
    return frozenset(found)


@lru_cache(maxsize=None)
def flats(m: SetMatroid) -> frozenset[frozenset[int]]:
    """Subsets F with rank(F + e) > rank(F) for every e outside F."""
    out = []
    ground = range(1, m.n + 1)
    for s in powerset(ground):
        fs = frozenset(s)
        r = matroid_rank(m, fs)
        if all(matroid_rank(m, fs | {e}) > r for e in ground if e not in fs):
            out.append(fs)
    return frozenset(out)


def is_quotient(m: SetMatroid, n: SetMatroid, criterion: int = 1) -> bool:
    """Whether m is a quotient of n, under one of three equivalent criteria.

    1. every circuit of n is a union of circuits of m;
    2. every flat of m is a flat of n;
    3. basis-exchange transfer: for every basis B of n and p outside B there
       is a basis B' of m inside B such that whenever swapping some q in B'
       for p stays a basis of m, the same swap performed in B stays a basis
       of n.
    """
    if m.n != n.n:
        raise DomainError(f"mismatched ground sets: [{m.n}] vs [{n.n}]")
    if criterion == 1:
        cm = circuits(m)
        for circ in circuits(n):
            covered = frozenset().union(*(c for c in cm if c <= circ))
            if covered != circ:
                return False
        return True
    if criterion == 2:
        return flats(m) <= flats(n)
    if criterion == 3:
        ground = n.ground()
        mb = sorted(m.bases, key=lambda b: tuple(sorted(b)))
        for b in n.bases:
            for p in sorted(ground - b):
                ok = False
                for bp in mb:
                    if not bp <= b:
                        continue
                    if all(
                        (b - {q}) | {p} in n.bases
                        for q in bp
                        if (bp - {q}) | {p} in m.bases
                    ):
                        ok = True
                        break
                if not ok:
                    return False
        return True
    raise DomainError(f"unknown quotient criterion {criterion!r}")


# --- exact linear algebra, for matrix ingestion and polytope ranks and solves


def matrix_from_json(rows) -> tuple[tuple[Fraction, ...], ...]:
    try:
        mat = tuple(tuple(map(_json_fraction, row)) for row in rows)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"malformed matrix entry: {exc}") from exc
    if not mat:
        raise DomainError("empty matrix")
    width = {len(r) for r in mat}
    if len(width) != 1:
        raise DomainError("ragged matrix")
    return mat


def _eliminate(rows) -> tuple[list[int], list[list[int]]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix.

    Returns the pivot columns and the reduced pivot rows.  Every division is
    exact, because every entry is a minor of the input, and every pivot entry
    ends equal to the last pivot, so a full-rank system [A | b] reads off as
    x_i = row_i[n] / row_i[i].
    """
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        k = len(pivots)
        piv = next((r for r in range(k, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[k], mat[piv] = mat[piv], mat[k]
        top = mat[k]
        pk = top[col]
        for r, row in enumerate(mat):
            f = row[col]  # f == 0 only rescales the row, by pk / prev
            if r != k and (f or pk != prev):
                mat[r] = [(pk * x - f * y) // prev for x, y in zip(row, top)]
        prev = pk
        pivots.append(col)
        if k + 1 == len(mat):
            break
    return pivots, mat[: len(pivots)]


def _matrix_rank_int(rows) -> int:
    return len(_eliminate(rows)[0])


def matroid_from_rational_matrix(rows) -> SetMatroid:
    """Column matroid of an exact rational matrix.

    Bases are the r-subsets of columns of rank r, where r = rank of the whole
    matrix; entries may be Fractions, ints, or "p/q" strings.
    """
    mat = []
    for row in matrix_from_json(rows):  # clearing denominators keeps the matroid
        den = lcm(*(x.denominator for x in row))
        mat.append([int(x * den) for x in row])
    ncols = len(mat[0])
    r = _matrix_rank_int(mat)
    if r == 0:
        return SetMatroid(n=ncols, bases=frozenset([frozenset()]), rank=0)
    bases = []
    for cols in combinations(range(ncols), r):
        sub = [[row[c] for c in cols] for row in mat]
        if _matrix_rank_int(sub) == r:
            bases.append(frozenset(c + 1 for c in cols))
    return matroid_from_bases(ncols, bases)


# --- JSON forms -------------------------------------------------------------


def matroid_to_json(m: SetMatroid) -> dict:
    return {"n": m.n, "bases": [list(b) for b in m.sorted_bases()]}


def matroid_from_json(doc: dict) -> SetMatroid:
    try:
        bases = [[_json_int(x) for x in b] for b in doc["bases"]]
        n = _json_int(doc["n"])
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed matroid document: {exc}") from exc
    if n < 0:
        raise DomainError(f"malformed matroid document: n={n} is negative")
    repeated = next((b for b in bases if len(set(b)) != len(b)), None)
    if repeated is not None:
        raise DomainError(f"malformed matroid document: basis {repeated} repeats an element")
    return matroid_from_bases(n, bases)
