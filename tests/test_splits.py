from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsplit.errors import DomainError
from permsplit.lpm import flag_of_interval, is_lpm
from permsplit.perm import BruhatInterval, dual_interval, identity, longest
from permsplit.polytope import faces_2d, is_bip, permutahedron_edges, permutahedron_vertices
from permsplit.splits import (
    MAX_SCAN_N,
    SplitHyperplane,
    _canonical_supports,
    _families,
    _open_levels,
    _support_bounds,
    _verdict,
    check_split,
    dual_hyperplane,
    exhaustive_scan,
    hyperplane_text,
    hyperplane_to_json,
    predicted_cells,
    theorem_hyperplanes,
)
from test_polytope import face_vertices


def H(n, support, level):
    return SplitHyperplane(n=n, support=frozenset(support), level=level)


def geometric_cells(h):
    """The two closed sides of h as Bruhat intervals, the identity's side
    first, from x_S on all n! vertices and never from the closed form; None
    when a side is not an interval."""
    n, level = h.n, h.level
    perms = permutahedron_vertices(n)
    columns = list(zip(*perms))
    pairs = list(zip(perms, map(sum, zip(*(columns[i - 1] for i in h.support)))))
    side_a = is_bip([p for p, v in pairs if v <= level])
    side_b = is_bip([p for p, v in pairs if v >= level])
    if side_a is None or side_b is None:
        return None
    return (side_a, side_b) if side_a.lo == identity(n) else (side_b, side_a)


def test_hyperplane_normalization():
    # complementary support within the ambient hyperplane is the same cut
    assert H(4, {3, 4}, 6) == H(4, {1, 2}, 4)
    assert H(4, {2, 3, 4}, 8) == H(4, {1}, 2)
    assert H(5, {1, 2, 3}, 7) == H(5, {4, 5}, 8)
    assert hyperplane_text(H(5, {1, 2, 3}, 7)) == "x4+x5=8"


def test_hyperplane_bounds():
    with pytest.raises(DomainError):
        H(4, {1}, 0)
    with pytest.raises(DomainError):
        H(4, {1, 2}, 8)
    with pytest.raises(DomainError):
        H(4, {1, 2, 3, 4}, 10)
    with pytest.raises(DomainError):
        SplitHyperplane(n=4, support=frozenset({1}), level=2.5)


def test_theorem_hyperplanes_lists():
    assert {str(h) for h in theorem_hyperplanes(3)} == {"x1=2", "x3=2"}
    assert {str(h) for h in theorem_hyperplanes(4)} == {
        "x1+x2=4", "x1+x2=6", "x1=2", "x1=3", "x4=2", "x4=3",
    }
    assert len(theorem_hyperplanes(5)) == 10
    with pytest.raises(DomainError):
        theorem_hyperplanes(2)


def test_check_split_bad_examples():
    assert check_split(H(4, {1, 2}, 5)).verdict == "bad-square"
    report = check_split(H(4, {3}, 3))
    assert report.verdict == "bad-hexagon"
    assert report.offending_face is not None
    assert report.offending_face.shape == "hexagon"


def test_check_split_good_example():
    report = check_split(H(4, {1}, 2))
    assert report.verdict == "good-split"
    assert report.cells == (
        BruhatInterval(identity(4), (2, 4, 3, 1)),
        BruhatInterval((2, 1, 3, 4), longest(4)),
    )
    assert report.lpfm == (True, True)


def test_check_split_not_a_split():
    # facet level: one strict side is empty
    assert check_split(H(4, {1}, 1)).verdict == "not-a-split"


def test_predicted_cells():
    assert predicted_cells(H(4, {1, 2}, 4)) == (
        BruhatInterval(identity(4), (3, 1, 4, 2)),
        BruhatInterval((1, 3, 2, 4), longest(4)),
    )
    assert predicted_cells(H(4, {1}, 2)) == (
        BruhatInterval(identity(4), (2, 4, 3, 1)),
        BruhatInterval((2, 1, 3, 4), longest(4)),
    )
    assert predicted_cells(H(4, {4}, 3)) == (
        BruhatInterval(identity(4), (4, 2, 1, 3)),
        BruhatInterval((1, 2, 4, 3), longest(4)),
    )
    # an interior level of the prefix direction is not in any family
    assert predicted_cells(H(4, {1, 2}, 5)) is None
    assert predicted_cells(H(4, {1, 3}, 4)) is None


def test_predicted_cells_match_geometry():
    for n in range(3, 8):
        for h in theorem_hyperplanes(n):
            assert check_split(h).cells == geometric_cells(h), h


def test_good_split_cells_are_anchored():
    for n in (3, 4):
        for h in theorem_hyperplanes(n):
            lo_cell, hi_cell = check_split(h).cells
            assert lo_cell.lo == identity(n)
            assert hi_cell.hi == longest(n)


def test_good_split_cells_have_extreme_paths():
    # identity-side constituents have maximal lower paths, top-side
    # constituents minimal upper paths
    for n in (3, 4):
        for h in theorem_hyperplanes(n):
            e_cell, w_cell = check_split(h).cells
            e_mats, _ = flag_of_interval(e_cell)
            w_mats, _ = flag_of_interval(w_cell)
            for m in e_mats:
                u, l = is_lpm(m)
                assert l == tuple(range(n - len(l) + 1, n + 1))  # Schubert
            for m in w_mats:
                u, l = is_lpm(m)
                assert u == tuple(range(1, len(u) + 1))  # dual Schubert


def test_dual_hyperplane():
    assert dual_hyperplane(H(4, {1, 2}, 4)) == H(4, {1, 2}, 6)
    assert dual_hyperplane(H(4, {1}, 2)) == H(4, {1}, 3)
    assert dual_hyperplane(H(4, {4}, 2)) == H(4, {4}, 3)
    with pytest.raises(DomainError):
        dual_hyperplane(H(4, {1, 2}, 5))  # bad split has no dual
    # the verdict builds no faces, so duality has no size bound
    assert dual_hyperplane(H(30, {1}, 2)) == H(30, {1}, 29)


def test_dual_hyperplane_cells_are_dual_intervals():
    for n in (3, 4):
        for h in theorem_hyperplanes(n):
            cells = check_split(h).cells
            dcells = check_split(dual_hyperplane(h)).cells
            assert dcells == (dual_interval(cells[1]), dual_interval(cells[0]))
            assert dual_hyperplane(dual_hyperplane(h)) == h


def test_exhaustive_scan():
    for n in range(3, 13):
        assert exhaustive_scan(n) == theorem_hyperplanes(n), n


def test_edges_cut_exactly_the_half_levels():
    # why the sweeps test no edges and no half-integer levels: an edge moves
    # x_S by 0 or 1, so it cuts no integer level strictly, and every
    # half-integer level inside the range is cut strictly by some edge
    for n in (3, 4, 5):
        edges = [tuple(e) for e in permutahedron_edges(n)]
        for size in range(1, n):
            for s in combinations(range(1, n + 1), size):
                lo, hi = _support_bounds(n, size)
                doubled = set()
                for p, q in edges:
                    a, b = (sum(v[i - 1] for i in s) for v in (p, q))
                    assert abs(a - b) <= 1, (n, s, p, q)
                    if a != b:
                        doubled.add(a + b)
                assert doubled == set(range(2 * lo + 1, 2 * hi, 2)), (n, s)


def test_exhaustive_scan_size_limit():
    with pytest.raises(DomainError):
        exhaustive_scan(2)
    with pytest.raises(DomainError):
        exhaustive_scan(MAX_SCAN_N + 1)


@lru_cache(maxsize=None)
def _faces_with_vertices(n):
    return tuple((f, face_vertices(f, n)) for f in faces_2d(n))


def sweep_oracle(h):
    """(verdict, offending face) from the faces' own vertices, never from the
    class lemma: bad squares first, then hexagons whose lo and hi are not
    strictly on opposite sides, each in faces_2d order."""
    n, level = h.n, h.level

    def x(v):
        return sum(v[i - 1] for i in h.support)

    def cut(verts):
        values = [x(v) for v in verts]
        return min(values) < level < max(values)

    faces = _faces_with_vertices(n)
    bad = [f for f, verts in faces if f.shape == "square" and cut(verts)] + [
        f for f, verts in faces
        if f.shape == "hexagon" and cut(verts)
        and (x(f.lo) - level) * (x(f.hi) - level) >= 0
    ]
    lo, hi = _support_bounds(n, len(h.support))
    if bad:
        return "bad-" + bad[0].shape, bad[0]
    if level in (lo, hi):
        return "not-a-split", None
    return "good-split", None


def test_open_levels_match_check_split():
    # the open levels against one verdict per integer level, and every
    # verdict and witness against the face sweep
    # at n=6 on the canonical supports, to which every hyperplane normalizes
    supports = [
        (n, s) for n in (3, 4, 5) for size in range(1, n)
        for s in combinations(range(1, n + 1), size)
    ] + [(6, s) for s in _canonical_supports(6)]
    for n, s in supports:
        lo, hi = _support_bounds(n, len(s))
        slow = [
            t for t in range(lo + 1, hi)
            if _verdict(n, frozenset(s), t) == "good-split"
        ]
        assert _open_levels(n, s) == slow, (n, s)
        for t in range(lo, hi + 1):
            h = H(n, s, t)
            report = check_split(h)
            assert (report.verdict == "good-split") == (t in slow), (n, s, t)
            assert (report.verdict, report.offending_face) == sweep_oracle(h), (n, s, t)


@st.composite
def candidate_hyperplanes(draw):
    n = draw(st.integers(3, 6))
    size = draw(st.integers(1, n - 1))
    support = draw(st.sets(st.integers(1, n), min_size=size, max_size=size))
    lo, hi = _support_bounds(n, size)
    return H(n, support, draw(st.integers(lo, hi)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(candidate_hyperplanes())
def test_check_split_against_independent_oracles(h):
    # oracles that never read the class lemma: the face sweep, the
    # closed-form families, and the closed sides for the cells
    expected, face = sweep_oracle(h)
    report = check_split(h)
    assert report.verdict == expected
    assert report.offending_face == face
    assert (expected == "good-split") == (h in theorem_hyperplanes(h.n))
    if expected == "good-split":
        assert report.cells == geometric_cells(h)


@st.composite
def any_hyperplane(draw):
    n = draw(st.integers(3, 30))
    size = draw(st.integers(1, n - 1))
    support = frozenset(draw(st.sets(st.integers(1, n), min_size=size, max_size=size)))
    lo, hi = _support_bounds(n, size)
    return n, support, draw(st.integers(lo, hi))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(any_hyperplane())
def test_hyperplane_normalization_property(args):
    # S and [n] - S with complementary levels are one object, which keeps the
    # support that is smaller by (|S|, sorted S)
    n, s, t = args
    comp = frozenset(range(1, n + 1)) - s
    h = H(n, s, t)
    assert h == H(n, comp, n * (n + 1) // 2 - t)
    kept = min((s, t), (comp, n * (n + 1) // 2 - t), key=lambda p: (len(p[0]), sorted(p[0])))
    assert (h.support, h.level) == kept


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 30).flatmap(lambda n: st.sampled_from(theorem_hyperplanes(n))))
def test_dual_hyperplane_involution_property(h):
    # duality swaps the prefix families at the same width and sends x_i = r
    # to x_i = n + 1 - r
    d = dual_hyperplane(h)
    assert dual_hyperplane(d) == h
    family, arg, level = _families(h.n)[h]
    swap = {"prefix-low": "prefix-high", "prefix-high": "prefix-low"}
    assert _families(h.n)[d][:2] == (swap.get(family, family), arg)
    if family == "coordinate":
        assert d.level == h.n + 1 - level


def test_json_round_trip():
    h = H(5, {1, 2}, 8)
    assert hyperplane_to_json(h) == {"S": [1, 2], "alpha": 8}
