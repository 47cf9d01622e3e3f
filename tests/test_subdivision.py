import json
from itertools import combinations
from pathlib import Path

import pytest

from permsplit import subdivision
from permsplit.errors import DomainError, InvariantError
from permsplit.lpm import flag_of_interval
from permsplit.perm import perm_to_str
from permsplit.polytope import point_to_json
from permsplit.splits import SplitHyperplane, check_split, hyperplane_to_json, theorem_hyperplanes
from permsplit.subdivision import (
    Subdivision,
    SubdivisionRejection,
    build_poset,
    export_poset,
    refines,
    subdivision_from_hyperplanes,
    subdivision_to_json,
)
from permsplit.verify import is_positroid

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def H(n, support, level):
    return SplitHyperplane(n=n, support=frozenset(support), level=level)


def rejection_to_json(r: SubdivisionRejection) -> dict:
    """The fixture form of a rejection: its offending vertex, or its cell's permutations."""
    if r.reason == "new-vertex":
        witness = point_to_json(r.witness)
    else:
        witness = [perm_to_str(p) for p in r.witness]
    return {
        "n": r.n,
        "hyperplanes": [hyperplane_to_json(h) for h in r.hyperplanes],
        "rejected": r.reason,
        "signs": r.signs,
        "witness": witness,
    }


def by_name(n):
    return {str(h): h for h in theorem_hyperplanes(n)}


@pytest.fixture(scope="module")
def l4_poset():
    return build_poset(4)


def cells_of(sub):
    return {(c.interval.lo, c.interval.hi) for c in sub.cells}


def test_single_hyperplane_reduces_to_check_split():
    h = H(4, {1}, 2)
    sub = subdivision_from_hyperplanes(4, [h])
    report = check_split(h)
    assert cells_of(sub) == {
        (report.cells[0].lo, report.cells[0].hi),
        (report.cells[1].lo, report.cells[1].hi),
    }
    assert {c.signs for c in sub.cells} == {"-", "+"}


def test_three_hyperplane_example():
    hs = [H(4, {1, 2}, 6), H(4, {1}, 2), H(4, {4}, 3)]
    sub = subdivision_from_hyperplanes(4, hs)
    assert isinstance(sub, Subdivision)
    assert cells_of(sub) == {
        ((1, 2, 3, 4), (2, 4, 1, 3)),
        ((1, 2, 4, 3), (2, 4, 3, 1)),
        ((2, 1, 3, 4), (4, 2, 1, 3)),
        ((2, 1, 4, 3), (4, 2, 3, 1)),
        ((2, 4, 1, 3), (4, 3, 2, 1)),
    }
    assert all(c.lpfm for c in sub.cells)


def test_new_vertex_rejection():
    rej = subdivision_from_hyperplanes(4, [H(4, {1, 2}, 6), H(4, {4}, 2)])
    assert isinstance(rej, SubdivisionRejection)
    assert rej.reason == "new-vertex"
    # witness is a genuine non-permutation point of the arrangement
    assert sorted(rej.witness) != [1, 2, 3, 4]


def test_rejects_bad_input_hyperplane():
    with pytest.raises(DomainError):
        subdivision_from_hyperplanes(4, [H(4, {1, 2}, 5)])
    with pytest.raises(DomainError):
        subdivision_from_hyperplanes(4, [])


def test_cells_tile_the_permutations():
    hs = [H(4, {1}, 2), H(4, {4}, 3)]
    sub = subdivision_from_hyperplanes(4, hs)
    seen = {}
    for c in sub.cells:
        for p in c.points():
            seen.setdefault(p, set()).add(c.signs)
    assert len(seen) == 24
    # a permutation in two cells sits on a shared hyperplane
    for p, regions in seen.items():
        if len(regions) > 1:
            assert any(
                sum(p[i - 1] for i in h.support) == h.level for h in sub.hyperplanes
            )


def test_refines():
    single = subdivision_from_hyperplanes(4, [H(4, {1}, 2)])
    trio = subdivision_from_hyperplanes(4, [H(4, {1, 2}, 6), H(4, {1}, 2), H(4, {4}, 3)])
    assert refines(single, single)
    assert refines(trio, single)
    assert not refines(single, trio)
    other = subdivision_from_hyperplanes(4, [H(4, {4}, 3)])
    assert not refines(single, other) and not refines(other, single)


def test_build_poset_l3():
    poset = build_poset(3)
    assert len(poset.elements) == 2
    assert poset.covers == ()
    assert len(poset.minimal_indices()) == 2
    assert len(poset.maximal_indices()) == 2


def test_build_poset_l4_structure(l4_poset):
    poset = l4_poset
    names = by_name(4)
    assert len(poset.minimal_indices()) == 6
    # every single-hyperplane split is a minimal element
    singles = [e for e in poset.elements if len(e.hyperplanes) == 1]
    assert len(singles) == 6
    # the two five-cell refinements are present and maximal
    tops = [e for e in poset.elements if len(e.cells) == 5]
    top_sets = {frozenset(str(h) for h in e.hyperplanes) for e in tops}
    assert top_sets == {
        frozenset({"x1+x2=6", "x1=2", "x4=3"}),
        frozenset({"x1+x2=4", "x1=3", "x4=2"}),
    }
    maximal = set(poset.maximal_indices())
    assert {poset.elements.index(e) for e in tops} <= maximal
    # derived and frozen: the full poset has 17 elements; besides the two
    # five-cell tops, the three parallel stacks are maximal because every
    # extension of a stack creates new vertices
    assert len(poset.elements) == 17
    assert len(maximal) == 5
    stacks = [
        e
        for e in poset.elements
        if len(e.hyperplanes) == 2
        and len({h.support for h in e.hyperplanes}) == 1
    ]
    assert len(stacks) == 3
    assert {poset.elements.index(e) for e in stacks} <= maximal


def test_build_poset_l4_monotone_acceptance(l4_poset):
    poset = l4_poset
    keyed = {frozenset(e.hyperplanes): e for e in poset.elements}
    for e in poset.elements:
        for h in e.hyperplanes:
            coarser = keyed[frozenset({h})]
            assert refines(e, coarser)
    # the poset's order, read off hyperplane sets, is geometric refinement
    for n, poset in ((3, build_poset(3)), (4, l4_poset)):
        for i, a in enumerate(poset.elements):
            for j, b in enumerate(poset.elements):
                inclusion = set(a.hyperplanes) <= set(b.hyperplanes)
                assert refines(b, a) == inclusion == ((i, j) in poset.leq), (n, i, j)


def test_poset_cells_are_positroid_flags(l4_poset):
    # every constituent of every cell's flag passes the Grassmann-necklace test
    for element in l4_poset.elements:
        for cell in element.cells:
            for m in flag_of_interval(cell.interval)[0]:
                assert is_positroid(4, m.bases), (cell.interval, m.rank)


def test_l3_poset_matches_fixture():
    got = json.loads(export_poset(build_poset(3), "json"))
    expected = json.loads((FIXTURES / "l3_poset.json").read_text())
    assert got == expected


def test_l4_poset_matches_fixture(l4_poset):
    got = json.loads(export_poset(l4_poset, "json"))
    expected = json.loads((FIXTURES / "l4_poset.json").read_text())
    assert got == expected


def test_subdivisions_match_fixture():
    # every nonempty subset of the theorem hyperplanes at n=3 and n=4, by size
    # and then in combinations order, witnesses and sign vectors included
    got = []
    for n in (3, 4):
        hyps = theorem_hyperplanes(n)
        for size in range(1, len(hyps) + 1):
            for combo in combinations(hyps, size):
                result = subdivision_from_hyperplanes(n, combo)
                if isinstance(result, SubdivisionRejection):
                    got.append(rejection_to_json(result))
                else:
                    got.append(subdivision_to_json(result))
    expected = json.loads((FIXTURES / "l4_subdivisions.json").read_text())
    assert len(got) == 3 + 63
    assert got == expected


def test_export_dot(l4_poset):
    poset = l4_poset
    dot = export_poset(poset, "dot")
    assert dot.startswith("digraph")
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == len(poset.covers)
    with pytest.raises(DomainError):
        export_poset(poset, "html")


def test_subdivision_json_shapes():
    sub = subdivision_from_hyperplanes(4, [H(4, {1}, 2)])
    doc = subdivision_to_json(sub)
    assert doc["n"] == 4
    assert doc["cells"][0].keys() == {"signs", "lo", "hi", "lpfm"}
    rej = subdivision_from_hyperplanes(4, [H(4, {1, 2}, 6), H(4, {4}, 2)])
    rdoc = rejection_to_json(rej)
    assert rdoc["rejected"] == "new-vertex"
    # json round trip through the documented schema
    assert json.loads(json.dumps(doc)) == doc


def drop_first_cell(monkeypatch):
    """Make subdivision_from_hyperplanes skip its first sign vector's cell as if it were flat."""
    calls, affine_rank = [], subdivision.affine_rank

    def rank(points):
        calls.append(points)
        return -1 if len(calls) == 1 else affine_rank(points)

    monkeypatch.setattr(subdivision, "affine_rank", rank)


def test_untiled_cells_raise_with_the_uncovered_permutations(monkeypatch):
    drop_first_cell(monkeypatch)  # x1 <= 2: 123 and 132 lie in no other cell
    with pytest.raises(InvariantError, match="2 uncovered, first 123") as info:
        subdivision_from_hyperplanes(3, [H(3, {1}, 2)])
    assert info.value.witness == ((1, 2, 3), (1, 3, 2))
