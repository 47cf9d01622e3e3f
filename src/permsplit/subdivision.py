"""Simultaneous hyperplane splits, their cell complexes, and the refinement poset.

A set of individually-good hyperplanes is accepted when cutting by all of
them at once creates no vertices beyond the permutations and every maximal
cell is a Bruhat interval polytope.  Accepted subdivisions are ordered by
refinement, which for them is inclusion of hyperplane sets (proved in
``build_poset``); single hyperplanes are the minimal (coarsest) elements.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, InvariantError, _json_text
from .lpm import flag_of_interval
from .perm import BruhatInterval, Perm, bruhat_interval, perm_to_str
from .polytope import (
    LinearConstraint,
    affine_rank,
    enumerate_vertices,
    is_bip,
    is_permutation_point,
    permutahedron_facets,
    permutahedron_vertices,
)
from .splits import (
    SplitHyperplane,
    _require_good,
    exhaustive_scan,
    hyperplane_text,
    hyperplane_to_json,
)

# largest n that build_poset accepts: n=4 takes about a second, while at n=5
# the subdivisions of the 45 pairs alone took 122 s (one run, 2-core machine)
MAX_POSET_N = 4


class SubdivisionCell(namedtuple("SubdivisionCell", "signs interval lpfm")):
    """One maximal cell: its sign vector ("-" = below side, "+" = above side,
    per hyperplane), Bruhat interval, and flag verdict."""

    __slots__ = ()

    def points(self) -> tuple[Perm, ...]:
        return bruhat_interval(self.interval.lo, self.interval.hi)


Subdivision = namedtuple("Subdivision", "n hyperplanes cells")

# ``reason`` is "new-vertex" or "non-bip-cell"; ``witness`` the offending vertex,
# or the offending cell's vertex tuple
SubdivisionRejection = namedtuple("SubdivisionRejection", "n hyperplanes reason signs witness")


def _ordered(hs) -> tuple[SplitHyperplane, ...]:
    return tuple(sorted(set(hs), key=SplitHyperplane.sort_key))


def subdivision_from_hyperplanes(n: int, hs):
    """Cut by every hyperplane at once; accept or reject with a witness.

    For each sign vector the constraint system (facets plus signed cuts) is
    enumerated exactly; full-dimensional cells must have only permutation
    vertices and interval point sets.
    """
    hyps = _ordered(hs)
    if not hyps:
        raise DomainError("need at least one hyperplane")
    if any(h.n != n for h in hyps):
        raise DomainError("hyperplane ground-set size differs from n")
    for h in hyps:
        _require_good(h)

    facets = permutahedron_facets(n)
    cells = []
    covered = set()
    for bits in range(2 ** len(hyps)):
        signs = "".join("+" if bits & (1 << t) else "-" for t in range(len(hyps)))
        cuts = [
            LinearConstraint(
                h.support, ">=" if sign == "+" else "<=", Fraction(h.level)
            )
            for h, sign in zip(hyps, signs)
        ]
        points = enumerate_vertices(list(facets) + cuts, n).points
        if affine_rank(points) < n - 1:
            continue
        strays = [p for p in points if not is_permutation_point(p)]
        if strays:
            return SubdivisionRejection(
                n=n, hyperplanes=hyps, reason="new-vertex", signs=signs,
                witness=strays[0],
            )
        # every coordinate is now an int, so the points are the permutations
        interval = is_bip(points)
        if interval is None:
            return SubdivisionRejection(
                n=n, hyperplanes=hyps, reason="non-bip-cell", signs=signs,
                witness=points,
            )
        _, lpfm_ok = flag_of_interval(interval)
        cells.append(SubdivisionCell(signs=signs, interval=interval, lpfm=lpfm_ok))
        covered.update(points)

    uncovered = sorted(set(permutahedron_vertices(n)) - covered)
    if uncovered:
        raise InvariantError(
            f"accepted cells do not tile the permutation set: {len(uncovered)} uncovered, "
            f"first {perm_to_str(uncovered[0])}",
            tuple(uncovered),
        )
    return Subdivision(n=n, hyperplanes=hyps, cells=tuple(cells))


def refines(a: Subdivision, b: Subdivision) -> bool:
    """True when every cell of a sits inside some cell of b.

    Containment is tested on permutation vertex sets, which is exact for
    interval cells: the permutations inside a cell are precisely its
    vertices.  The oracle of the hyperplane-set inclusion that
    :func:`build_poset` proves to be the refinement order; the tests compare
    the two on every pair of elements at n = 3 and 4.
    """
    if a.n != b.n:
        raise DomainError("subdivisions on different ground sets")
    b_sets = [frozenset(c.points()) for c in b.cells]
    for cell in a.cells:
        pts = frozenset(cell.points())
        if not any(pts <= bs for bs in b_sets):
            return False
    return True


class SubdivisionPoset(namedtuple("SubdivisionPoset", "n elements leq covers")):
    """Accepted subdivisions ordered by refinement (finer = higher); ``leq``
    holds (i, j) when element j refines element i."""

    __slots__ = ()

    def minimal_indices(self) -> tuple[int, ...]:
        below = {j for i, j in self.leq if i != j}
        return tuple(i for i in range(len(self.elements)) if i not in below)

    def maximal_indices(self) -> tuple[int, ...]:
        above = {i for i, j in self.leq if i != j}
        return tuple(i for i in range(len(self.elements)) if i not in above)


def build_poset(n: int) -> SubdivisionPoset:
    """Accepted subdivisions from every nonempty subset of the good splits.

    New-vertex rejections propagate to supersets (a coarse cell's vertex is a
    vertex of any refining cell), which prunes the enumeration.  Acceptance
    still requires the interval check per subset.

    The order is read off the hyperplane sets: an accepted A refines an
    accepted B exactly when hyps(B) is a subset of hyps(A).  If it is, each
    cell of A lies on one side of every hyperplane of B, so inside one cell
    of B.  If not, take h in hyps(B) - hyps(A).  h meets the interior of Π_n
    in an (n-2)-dimensional set, and the hyperplanes of A, all distinct from
    h, meet h in lower dimension; so some point p of h inside Π_n lies on no
    hyperplane of A.  The cell of A around p has points strictly on both
    sides of h, and no cell of B does, so no cell of B contains it (a cell is
    the hull of its permutations, so this holds for the permutation sets
    ``refines`` compares as well).  In particular distinct accepted sets
    never give the same cells.  :func:`refines` is the oracle of this order.
    """
    if not 3 <= n <= MAX_POSET_N:
        raise DomainError(f"build_poset needs 3 <= n <= {MAX_POSET_N}, got n={n}")
    hyps = exhaustive_scan(n)
    rejected_minimal: list[frozenset[SplitHyperplane]] = []
    accepted: list[Subdivision] = []
    for size in range(1, len(hyps) + 1):
        for combo in combinations(hyps, size):
            hset = frozenset(combo)
            if any(bad <= hset for bad in rejected_minimal):
                continue
            result = subdivision_from_hyperplanes(n, combo)
            if isinstance(result, SubdivisionRejection):
                if result.reason == "new-vertex":
                    rejected_minimal.append(hset)
                continue
            accepted.append(result)

    elements = tuple(
        sorted(
            accepted,
            key=lambda s: (len(s.hyperplanes), [h.sort_key() for h in s.hyperplanes]),
        )
    )
    sets = [frozenset(s.hyperplanes) for s in elements]
    leq = {(i, j) for i, a in enumerate(sets) for j, b in enumerate(sets) if a <= b}
    strict = {(i, j) for i, j in leq if i != j}
    covers = tuple(
        sorted(
            (i, j)
            for i, j in strict
            if not any((i, k) in strict and (k, j) in strict for k in range(len(elements)))
        )
    )
    return SubdivisionPoset(n=n, elements=elements, leq=frozenset(leq), covers=covers)


# --- serialization ----------------------------------------------------------


def subdivision_to_json(s: Subdivision) -> dict:
    return {
        "n": s.n,
        "hyperplanes": [hyperplane_to_json(h) for h in s.hyperplanes],
        "cells": [
            {
                "signs": c.signs,
                "lo": perm_to_str(c.interval.lo),
                "hi": perm_to_str(c.interval.hi),
                "lpfm": c.lpfm,
            }
            for c in s.cells
        ],
    }


def poset_to_json(p: SubdivisionPoset) -> dict:
    return {
        "n": p.n,
        "elements": [subdivision_to_json(s) for s in p.elements],
        "covers": [list(c) for c in p.covers],
    }


def _element_label(s: Subdivision) -> str:
    return " & ".join(hyperplane_text(h) for h in s.hyperplanes)


def export_poset(p: SubdivisionPoset, format: str) -> str:
    """DOT digraph of the cover relation, or the JSON document."""
    if format == "json":
        return _json_text(poset_to_json(p)) + "\n"
    if format == "dot":
        lines = [f'digraph subdivisions_{p.n} {{', "  rankdir=BT;"]
        for s in p.elements:
            lines.append(f'  "{_element_label(s)}";')
        for i, j in p.covers:
            lines.append(
                f'  "{_element_label(p.elements[i])}" -> "{_element_label(p.elements[j])}";'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise DomainError(f"unknown export format {format!r}")
