"""Matroids on [n] = {1, ..., n} stored extensionally by their bases.

Derived data is computed on bit masks.  Circuits and flats come from a rank
table of all 2^n subsets, with bit x - 1 for the element x, so for n <=
MAX_LATTICE_N.  The exchange test and the basis-exchange quotient criterion
come from the bases alone, on exchange masks that give a bit only to the
elements the bases hold, so their cost follows the bases and not n.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, compress
from math import lcm
from operator import or_

from .errors import DomainError, ExchangeAxiomError, _json_fraction, _json_int
from .perm import MAX_LATTICE_N


@dataclass(frozen=True)
class SetMatroid:
    """Matroid given by its bases.  Build through :func:`matroid_from_bases` or a theorem."""

    n: int
    bases: frozenset[frozenset[int]]
    rank: int

    def ground(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def sorted_bases(self) -> list[tuple[int, ...]]:
        return sorted(tuple(sorted(b)) for b in self.bases)


def _elements(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


@lru_cache(maxsize=None)
def _held(bases: frozenset[frozenset[int]]) -> frozenset[int]:
    """The elements that some basis holds: the labels of its exchange masks."""
    return frozenset().union(*bases)


@lru_cache(maxsize=None)
def _swap_table(bases: frozenset[frozenset[int]], labels: frozenset[int]):
    """(entries, swaps, bit) of a family of bases, on masks with ``bit[x]`` = 1 << i
    for the i-th smallest label x.

    ``swaps[C]``, for each basis less one of its elements, is the mask of the y
    for which C + y is a basis.  ``entries`` holds, for each basis B in sorted
    order, its sorted elements, its mask and its (x, swaps[B - x]) pairs in
    increasing x: swaps[B - x] holds x itself and every y that can replace x in B.
    """
    bit = {x: 1 << i for i, x in enumerate(sorted(labels))}
    masked = [(b, sum(map(bit.__getitem__, b))) for b in sorted(map(sorted, bases))]
    swaps = defaultdict(int)
    for b, c in masked:
        for x in b:
            swaps[c ^ bit[x]] |= bit[x]
    return tuple((b, c, tuple((x, swaps[c ^ bit[x]]) for x in b)) for b, c in masked), swaps, bit


def exchange_violation(bases):
    """First (B1, B2, x), over the sorted bases, witnessing an exchange failure, or None."""
    bases = frozenset(map(frozenset, bases))
    entries = _swap_table(bases, _held(bases))[0]
    for b1, _, keep in entries:
        for b2, m2, _ in entries:
            for x, kept_by in keep:  # B2 holds x, or a y that can replace it in B1
                if not m2 & kept_by:
                    return frozenset(b1), frozenset(b2), x
    return None


def matroid_from_bases(n: int, bases) -> SetMatroid:
    """Validate the exchange axiom and equal cardinalities, then wrap."""
    bset = frozenset(frozenset(b) for b in bases)
    if not bset:
        raise DomainError("a matroid needs at least one basis")
    for b in bset:
        if not all(1 <= x <= n for x in b):
            raise DomainError(f"basis {sorted(b)} not a subset of [{n}]")
    sizes = {len(b) for b in bset}
    if len(sizes) != 1:
        raise DomainError(f"bases of unequal sizes: {sorted(sizes)}")
    witness = exchange_violation(bset)  # builds the table criterion 3 reads
    if witness is not None:
        raise ExchangeAxiomError(*witness)
    return SetMatroid(n=n, bases=bset, rank=sizes.pop())


@lru_cache(maxsize=None)
def _lattice(m: SetMatroid) -> tuple[tuple[int, ...], frozenset[int]]:
    """(circuit masks, flat masks) from a rank table of all 2^n subsets S: an
    integer with byte S, so that one shift, AND, OR or subtraction in C acts
    on every S at once.  rank[S] counts the k for which S holds an independent
    k-set (one below a basis).  A circuit is a dependent S whose every S - x
    is independent, a flat an F with rank[F + x] > rank[F] for each x outside."""
    n = m.n
    if n > MAX_LATTICE_N:
        raise DomainError(f"circuits and flats need n <= {MAX_LATTICE_N} (2^n subsets), got n={n}")
    size = 1 << n
    ones = int.from_bytes(b"\1" * size, "little")
    marks = bytearray(size)
    for b in m.bases:
        marks[sum(1 << x - 1 for x in b)] = 1
    indep, steps = int.from_bytes(marks, "little"), []
    for i in range(n):  # steps: (shift from S to S + x, table of the S holding x, of the rest)
        has = int.from_bytes((bytes(1 << i) + b"\1" * (1 << i)) * (size >> i + 1), "little")
        steps.append((8 << i, has, ones ^ has))
        indep |= (indep & has) >> (8 << i)  # close downwards: S - x lies below S
    sizes, rank = bytes(map(int.bit_count, range(size))), 0
    for k in range(1, max(map(len, m.bases)) + 1):  # above: the S that hold an independent k-set
        above = indep & int.from_bytes(sizes.translate(bytes(k) + b"\1" + bytes(255 - k)), "little")
        for shift, _, lacks in steps:
            above |= (above & lacks) << shift
        rank += above
    circs, flat = ones ^ indep, ones
    for shift, has, lacks in steps:
        circs &= lacks | (indep & lacks) << shift
        lacks *= 0xFF  # rank[F + x] - rank[F] is 0 or 1 at each F that lacks x: no borrows
        flat &= has | ((rank >> shift & lacks) - (rank & lacks))
    return (tuple(compress(range(size), circs.to_bytes(size, "little"))),
            frozenset(compress(range(size), flat.to_bytes(size, "little"))))


@lru_cache(maxsize=None)  # idle (quotient tests read _lattice); perfbench/child.py reads its cache_info
def circuits(m: SetMatroid) -> frozenset[frozenset[int]]:
    """Minimal dependent subsets."""
    return frozenset(frozenset(_elements(c)) for c in _lattice(m)[0])


def flats(m: SetMatroid) -> frozenset[frozenset[int]]:
    """Subsets F with rank(F + e) > rank(F) for every e outside F."""
    return frozenset(frozenset(_elements(f)) for f in _lattice(m)[1])


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
        mc = _lattice(m)[0]
        return all(reduce(or_, (c for c in mc if not c & ~nc), 0) == nc for nc in _lattice(n)[0])
    if criterion == 2:
        return _lattice(m)[1] <= _lattice(n)[1]
    if criterion == 3:  # B' serves p unless some q in B' has B' - q + p in m but not B - q + p in n
        labels = _held(m.bases) | _held(n.bases)
        m_entries = _swap_table(m.bases, labels)[0]
        n_entries, n_swaps, bit = _swap_table(n.bases, labels)
        for _, b, _ in n_entries:
            # the p that no B' inside B serves yet.  A p that no basis holds (no bit, or
            # outside [n]) is in no basis of m, so any B' inside B serves it, and if none
            # lies inside B, B is not [n] and the verdict is false anyway: starting from
            # every p outside B changes no verdict
            unmet = ~b
            for _, bp, keep in m_entries:
                if unmet and not bp & ~b:
                    unmet &= reduce(or_, (s & ~n_swaps[b ^ bit[q]] for q, s in keep), 0)
            if unmet:
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


def _integer_rows(rows) -> list[list[int]]:
    """Each row of ints or Fractions times the lcm of its denominators: integer
    rows with the same row space, so with the same rank and column matroid."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def matroid_from_rational_matrix(rows) -> SetMatroid:
    """Column matroid of an exact rational matrix.

    Bases are the r-subsets of columns of rank r, where r = rank of the whole
    matrix; entries may be Fractions, ints, or "p/q" strings.  There is no
    exchange test: the maximal independent column sets of a matrix satisfy
    the exchange axiom (Steinitz), so a column matroid is a matroid.
    """
    mat = _integer_rows(matrix_from_json(rows))
    ncols = len(mat[0])
    if ncols > MAX_LATTICE_N:
        raise DomainError(f"matroid_from_rational_matrix needs at most {MAX_LATTICE_N} columns,"
                          f" got {ncols}")
    basis = [mat[i] for i in _eliminate(zip(*mat))[0]]  # rows, by the transpose's pivots
    r = len(basis)
    bases = frozenset(frozenset(cols) for cols in combinations(range(1, ncols + 1), r)
                      if _matrix_rank_int([[row[c - 1] for c in cols] for row in basis]) == r)
    return SetMatroid(ncols, bases, r)


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
