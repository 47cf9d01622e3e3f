import random
import time
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsplit import splits
from permsplit.cli import main
from permsplit.errors import DomainError
from permsplit.lpm import flag_of_interval, is_lpm
from permsplit.perm import BruhatInterval, dual_interval, identity, longest
from permsplit.polytope import faces_2d, is_bip, permutahedron_edges, permutahedron_vertices
from permsplit.splits import (
    MAX_SCAN_N,
    SplitHyperplane,
    _canonical,
    _canonical_supports,
    _families,
    _label,
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


def test_canonical_side_matches_the_tuple_rule():
    # the reference rule: of S and [n] - S, keep the side with the smaller
    # (|S|, sorted S)
    for n in range(2, 11):
        total, kept = n * (n + 1) // 2, []
        for k in range(1, n):
            for s in combinations(range(1, n + 1), k):
                comp = tuple(sorted(set(range(1, n + 1)) - set(s)))
                keep = not (len(comp), comp) < (len(s), s)
                assert _canonical(n, s) == _canonical(n, frozenset(s)) == keep, (n, s)
                kept += [s] * keep
                lo, hi = _support_bounds(n, k)
                for t in range(lo, hi + 1):
                    h = H(n, s, t)
                    assert (tuple(sorted(h.support)), h.level) == ((s, t) if keep else (comp, total - t))
        assert list(_canonical_supports(n)) == kept


def test_hyperplane_bounds():
    with pytest.raises(DomainError):
        H(4, {1}, 0)
    with pytest.raises(DomainError):
        H(4, {1, 2}, 8)
    with pytest.raises(DomainError):
        H(4, {1, 2, 3, 4}, 10)
    with pytest.raises(DomainError):
        SplitHyperplane(n=4, support=frozenset({1}), level=2.5)
    for n, support in ((4, {0, 1}), (4, {5}), (4, set()), (1, {1}), (0, {1}), (-2, {1})):
        with pytest.raises(DomainError, match=rf"nonempty proper subset of \[{n}\]"):
            H(n, support, 1)


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
    for n in [*range(3, 41), 200, MAX_SCAN_N]:
        assert exhaustive_scan(n) == theorem_hyperplanes(n), n


def test_label_matches_the_family_table():
    # every singleton, prefix and suffix support: at every level up to n=20,
    # and beyond it at the three levels at each end of x_S's range, where the
    # prefix families sit (a singleton keeps every level)
    for n in range(3, 61):
        table = _families(n)
        supports = {frozenset({i}) for i in range(1, n + 1)}
        for k in range(2, n - 1):
            supports |= {frozenset(range(1, k + 1)), frozenset(range(n - k + 1, n + 1))}
        for s in supports:
            lo, hi = _support_bounds(n, len(s))
            levels = range(lo, hi + 1)
            if n > 20 and len(s) > 1:
                levels = [*levels[:3], *levels[-3:]]
            for t in levels:
                h = H(n, s, t)
                assert _label(h) == table.get(h), h


def test_good_check_at_the_scan_bound_builds_no_table(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(splits, "_families", lambda n: calls.append(n) or _families(n))
    start = time.perf_counter()
    code = main(["split", "check", "-n", str(MAX_SCAN_N), "x1=2"])
    assert time.perf_counter() - start < 0.1
    assert code == 0 and capsys.readouterr().out.split()[:2] == ["verdict", "good-split"]
    assert calls == []


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


def _subset_sums(values, m):
    """Bitset of the sums of m distinct elements of values (bit s for sum s)."""
    rows = [1] + [0] * m  # rows[j]: the sums of j of the values seen so far
    for x in values:
        for j in range(m, 0, -1):
            rows[j] |= rows[j - 1] << x
    return rows[m] if m >= 0 else 0


@lru_cache(maxsize=None)
def lemma_levels(n, k, mid, outer):
    """Bitsets (bit t for level t) of the levels that squares and that
    hexagons forbid for a support of class (k, mid, outer), each sum of the
    lemma in the splits docstring evaluated by a subset-sum table."""
    squares = hexagons = 0
    for v in range(1, n - 2):
        for w in range(v + 2, n):
            rest = [x for x in range(1, n + 1) if x not in (v, v + 1, w, w + 1)]
            squares |= _subset_sums(rest, k - 2) << v + w + 1
    for v in range(1, n - 1):
        rest = [x for x in range(1, n + 1) if not v <= x <= v + 2]
        if mid:
            hexagons |= _subset_sums(rest, k - 1) << v + 1
        if outer:
            hexagons |= _subset_sums(rest, k - 2) << 2 * v + 2
    return squares, hexagons


def support_class(n, support):
    """(k, mid, outer): S is mid when [n] - S is not a run of positions, and
    outer when S is not."""
    outside = [p for p in range(1, n + 1) if p not in support]
    k = len(support)
    return k, outside[-1] - outside[0] >= n - k, max(support) - min(support) >= k


def lemma_verdict(n, support, level):
    lo, hi = _support_bounds(n, len(support))
    if not lo < level < hi:
        return "not-a-split"
    squares, hexagons = lemma_levels(n, *support_class(n, support))
    if squares >> level & 1:
        return "bad-square"
    if hexagons >> level & 1:
        return "bad-hexagon"
    return "good-split"


def class_representatives(n):
    """Supports on [n] that take every class: a prefix and a suffix (neither
    flag), a run off both ends (mid), a run but one position moved to n
    (outer) and 1 with a run from 3 (both, when 2 <= k <= n - 2)."""
    reps = set()
    for k in range(1, n):
        for s in (
            range(1, k + 1), range(n - k + 1, n + 1), range(2, k + 2),
            [*range(1, k), n], [1, *range(3, k + 2)],
        ):
            if len(set(s)) == k and max(s) <= n:
                reps.add(frozenset(s))
    return reps


def test_class_representatives_cover_every_class():
    for n in range(3, 10):
        classes = {
            support_class(n, s) for k in range(1, n)
            for s in combinations(range(1, n + 1), k)
        }
        assert {support_class(n, s) for s in class_representatives(n)} == classes, n


def test_verdict_matches_the_lemma():
    # the theorem's closed form against the lemma's sums, on supports of every
    # class and every level of their closed range
    for n in range(3, 21):
        for s in class_representatives(n):
            lo, hi = _support_bounds(n, len(s))
            for t in range(lo, hi + 1):
                assert _verdict(n, s, t) == lemma_verdict(n, s, t), (n, sorted(s), t)


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


def _offending_face(n, support, level, verdict):
    """The first face in faces_2d order of the verdict's shape that forbids
    the level, by walking the faces: S must take some but not all positions
    of each larger block; then a square forbids the level its lo and hi
    average to, and a hexagon the level at which both its lo and hi sit."""
    idx = [i - 1 for i in support]
    for face in faces_2d(n):
        if verdict != "bad-" + face.shape or not all(
            0 < len(support.intersection(b)) < len(b) for b in face.blocks if len(b) > 1
        ):
            continue
        x_lo, x_hi = sum(face.lo[i] for i in idx), sum(face.hi[i] for i in idx)
        if (x_lo + x_hi == 2 * level) if face.shape == "square" else (x_lo == x_hi == level):
            return face
    return None


def bad_levels(n):
    for s in _canonical_supports(n):
        lo, hi = _support_bounds(n, len(s))
        for t in range(lo + 1, hi):
            if _verdict(n, s, t) != "good-split":
                yield H(n, s, t)


def test_first_face_matches_the_face_walk():
    # the built face against the walk over faces_2d, on every bad level of
    # every canonical support at n <= 6 and on a seeded sample at n = 7
    cases = [h for n in range(3, 7) for h in bad_levels(n)]
    cases += random.Random(7).sample(list(bad_levels(7)), 100)
    for h in cases:
        report = check_split(h)
        face = _offending_face(h.n, h.support, h.level, report.verdict)
        assert report.offending_face == face is not None, h


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(5, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(1, n), min_size=1, max_size=n - 1), st.integers(0, 10**6))))
def test_first_face_is_a_forbidding_face(args):
    # the face, from its own vertices: a 2-face of the verdict's shape, cut
    # strictly by the level, a hexagon's lo and hi both on it
    n, support, pick = args
    lo, hi = _support_bounds(n, len(support))
    h = H(n, support, lo + 1 + pick % (hi - lo - 1))
    report = check_split(h)
    if report.verdict == "good-split":
        return
    face = report.offending_face
    assert sorted(p for b in face.blocks for p in b) == list(range(1, n + 1))
    sizes = sorted(len(b) for b in face.blocks)
    assert sizes == ([1] * (n - 4) + [2, 2] if face.shape == "square" else [1] * (n - 3) + [3])
    assert report.verdict == "bad-" + face.shape
    verts = face_vertices(face, n)
    assert (face.lo, face.hi) == (min(verts), max(verts))

    def x(v):
        return sum(v[i - 1] for i in h.support)

    assert min(map(x, verts)) < h.level < max(map(x, verts))
    if face.shape == "hexagon":
        assert x(face.lo) == x(face.hi) == h.level


def test_predicted_cells_are_lpm_flags():
    # what check_split takes from the paper's theorem
    for n in range(3, 11):
        for h in theorem_hyperplanes(n):
            assert all(flag_of_interval(cell)[1] for cell in predicted_cells(h)), h


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
