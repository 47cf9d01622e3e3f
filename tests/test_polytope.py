import random
from fractions import Fraction
from itertools import chain, combinations, permutations, product

import pytest

from permsplit.errors import DomainError
from permsplit.lpm import _gale_count, is_lpm, lpm_bases, lpm_new, to_set_matroid, uniform_lpm
from permsplit.matroid import (
    _eliminate,
    _matrix_rank_int,
    matroid_from_bases,
    matroid_from_rational_matrix,
)
from permsplit.perm import BruhatInterval, bruhat_interval, bruhat_leq, identity, longest
from permsplit.polytope import (
    LinearConstraint,
    _solve_square,
    affine_rank,
    enumerate_vertices,
    faces_2d,
    flag_polytope_vertices,
    is_bip,
    is_permutation_point,
    permutahedron_edges,
    permutahedron_facets,
    permutahedron_vertices,
    point_to_json,
)
from permsplit.verify import all_lpfm_flags


def test_vertices():
    assert len(permutahedron_vertices(3)) == 6
    assert len(permutahedron_vertices(4)) == 24
    assert permutahedron_vertices(1) == ((1,),)


def test_facets():
    f3 = permutahedron_facets(3)
    assert len(f3) == 7  # 2^3 - 2 facets plus the ambient equality
    assert len([c for c in permutahedron_facets(4) if c.sense == ">="]) == 14
    wanted = LinearConstraint(frozenset({1, 2}), ">=", Fraction(3))
    assert wanted in permutahedron_facets(4)
    # every permutation satisfies every facet
    for p in permutahedron_vertices(4):
        for c in permutahedron_facets(4):
            s = sum(p[i - 1] for i in c.support)
            assert s >= c.level if c.sense == ">=" else s == c.level


def test_edges():
    assert len(permutahedron_edges(3)) == 6
    assert len(permutahedron_edges(4)) == 36  # 24 vertices, 3-regular
    assert frozenset({(1, 2, 3), (2, 1, 3)}) in permutahedron_edges(3)
    for n in (3, 4, 5):
        import math

        assert len(permutahedron_edges(n)) == math.factorial(n) * (n - 1) // 2


def test_edges_match_tight_facet_geometry():
    # adjacency iff the common tight facets leave a one-dimensional face
    n = 4
    facets = [c for c in permutahedron_facets(n) if c.sense == ">="]

    def tight(p):
        return {
            i
            for i, c in enumerate(facets)
            if sum(p[j - 1] for j in c.support) == c.level
        }

    geom = set()
    perms = permutahedron_vertices(n)
    for a in range(len(perms)):
        for b in range(a + 1, len(perms)):
            common = tight(perms[a]) & tight(perms[b])
            rows = [
                [1 if j in facets[t].support else 0 for j in range(1, n + 1)]
                for t in common
            ]
            rows.append([1] * n)
            if _matrix_rank_int(rows) == n - 1:
                geom.add(frozenset({perms[a], perms[b]}))
    assert geom == set(permutahedron_edges(n))


def test_faces_2d_counts():
    f4 = faces_2d(4)
    assert sum(1 for f in f4 if f.shape == "hexagon") == 8
    assert sum(1 for f in f4 if f.shape == "square") == 6
    f3 = faces_2d(3)
    assert len(f3) == 1 and f3[0].shape == "hexagon"


def face_vertices(face, n):
    """A 2-face's vertices: each block's run of values, the first block's the
    largest, arranged over its positions in every order, as a product over
    blocks."""
    runs, top = [], n
    for block in face.blocks:
        runs.append(permutations(range(top - len(block) + 1, top + 1)))
        top -= len(block)
    positions = [p for block in face.blocks for p in block]
    verts = []
    for parts in product(*runs):
        v = [0] * n
        for p, x in zip(positions, chain.from_iterable(parts)):
            v[p - 1] = x
        verts.append(tuple(v))
    return verts


def test_faces_2d_extremes():
    hexa = next(
        f for f in faces_2d(4) if f.blocks == ((2, 3, 4), (1,))
    )
    assert hexa.lo == (1, 2, 3, 4) and hexa.hi == (1, 4, 3, 2)
    for n in (4, 5):
        for f in faces_2d(n):
            verts = face_vertices(f, n)
            # vertex counts by shape
            assert len(set(verts)) == len(verts) == (6 if f.shape == "hexagon" else 4)
            # the declared extremes are vertices, Bruhat least and greatest
            assert f.lo in verts and f.hi in verts
            for v in verts:
                assert bruhat_leq(f.lo, v) and bruhat_leq(v, f.hi)


def test_flag_polytope_vertices_uniform():
    for n in (3, 4, 5):
        pts = flag_polytope_vertices([to_set_matroid(uniform_lpm(k, n)) for k in range(1, n + 1)])
        assert pts == {tuple(p) for p in permutahedron_vertices(n)}
    assert (3, 2, 1) in flag_polytope_vertices(
        [to_set_matroid(uniform_lpm(k, 3)) for k in (1, 2, 3)]
    )  # the chain 1 c 12 c 123


def test_flag_polytope_vertices_named():
    flag = [
        to_set_matroid(lpm_new(4, (2,), (4,))),
        to_set_matroid(lpm_new(4, (1, 2), (2, 4))),
        to_set_matroid(lpm_new(4, (1, 2, 4), (2, 3, 4))),
        to_set_matroid(uniform_lpm(4, 4)),
    ]
    pts = flag_polytope_vertices(flag)
    assert (3, 4, 1, 2) in pts and (1, 3, 2, 4) in pts
    assert len(pts) == 10


def test_flag_polytope_segment():
    flag = [
        matroid_from_bases(3, [{1}, {3}]),
        matroid_from_bases(3, [{1, 2}, {2, 3}]),
        to_set_matroid(uniform_lpm(3, 3)),
    ]
    assert flag_polytope_vertices(flag) == {(1, 2, 3), (3, 2, 1)}


def recursive_flag_polytope_vertices(parts) -> frozenset:
    """The reference: one basis per constituent, each containing the one
    before, walked depth first; every chain adds its indicator-vector sum."""
    n = parts[0].n
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


def test_flag_polytope_vertices_match_the_recursive_reference():
    # every LPM flag at n <= 4, then flags of column matroids of the first k
    # rows of seeded integer matrices, which need not be LPMs
    for n in (1, 2, 3, 4):
        for flag in all_lpfm_flags(n):
            parts = [to_set_matroid(m) for m in flag.constituents]
            assert flag_polytope_vertices(parts) == recursive_flag_polytope_vertices(parts), flag
    rng = random.Random(24)
    lpm_flags = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        rows = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(rng.randint(1, n))]
        parts = [matroid_from_rational_matrix(rows[:k]) for k in range(1, len(rows) + 1)]
        assert flag_polytope_vertices(parts) == recursive_flag_polytope_vertices(parts), rows
        lpm_flags += all(is_lpm(m) is not None for m in parts)
    assert 0 < lpm_flags < 150  # both LPM and non-LPM flags were compared


def test_flag_polytope_rejects_non_quotients():
    with pytest.raises(DomainError):
        flag_polytope_vertices(
            [to_set_matroid(uniform_lpm(2, 4)), to_set_matroid(uniform_lpm(1, 4))]
        )


def test_is_bip():
    assert is_bip(permutahedron_vertices(4)) == BruhatInterval(identity(4), longest(4))
    assert is_bip([(1, 2, 3), (3, 2, 1)]) is None  # a segment, not an interval
    ten = [
        (1, 3, 2, 4), (1, 3, 4, 2), (1, 4, 2, 3), (1, 4, 3, 2), (2, 3, 1, 4),
        (2, 4, 1, 3), (3, 1, 2, 4), (3, 1, 4, 2), (3, 2, 1, 4), (3, 4, 1, 2),
    ]
    assert is_bip(ten) == BruhatInterval((1, 3, 2, 4), (3, 4, 1, 2))
    with pytest.raises(DomainError):
        is_bip([(1, 2, 2)])


def test_is_bip_edge_inputs():
    assert is_bip([]) is None
    # a point that is not a permutation raises, wherever it sits in the order
    for bad in ((0, 0, 0), (2, 2, 2), (4, 4, 4)):
        for pts in ([bad], [(1, 2, 3), bad, (3, 2, 1)], [(2, 1, 3), bad]):
            with pytest.raises(DomainError):
                is_bip(pts)
    # points of different sizes raise, whether or not the extremes differ in size
    for pts in ([(1, 2), (2, 1, 3)], [(1, 2, 3), (2, 1), (3, 2, 1)], [(1, 3, 2), (1, 2)]):
        with pytest.raises(DomainError):
            is_bip(pts)
    # integer-valued Fractions give the interval of ints they equal
    members = bruhat_interval((1, 3, 2, 4), (3, 4, 1, 2))
    as_fractions = [tuple(Fraction(x) for x in z) for z in members]
    iv = is_bip(as_fractions)
    assert iv == BruhatInterval((1, 3, 2, 4), (3, 4, 1, 2))
    assert all(type(x) is int for z in (iv.lo, iv.hi) for x in z)
    assert is_bip([list(z) for z in members]) == iv
    assert is_bip(as_fractions[:-1]) is None


def test_is_bip_round_trip_exhaustive():
    for n in (3, 4):
        for u in permutations(range(1, n + 1)):
            for v in permutations(range(1, n + 1)):
                if bruhat_leq(u, v):
                    iv = BruhatInterval(u, v)
                    assert is_bip(iv.members()) == iv


def _quadratic_is_bip(points):
    # the definition: unique minimal and maximal elements spanning the set
    pts = sorted({tuple(p) for p in points})
    if not pts:
        return None
    minimal = [p for p in pts if not any(q != p and bruhat_leq(q, p) for q in pts)]
    maximal = [p for p in pts if not any(q != p and bruhat_leq(p, q) for q in pts)]
    if len(minimal) != 1 or len(maximal) != 1:
        return None
    lo, hi = minimal[0], maximal[0]
    if not bruhat_leq(lo, hi) or set(bruhat_interval(lo, hi)) != set(pts):
        return None
    return BruhatInterval(lo, hi)


def test_is_bip_matches_quadratic_definition():
    rng = random.Random(4)
    for n in (1, 2, 3, 4):
        perms = list(permutations(range(1, n + 1)))
        for u in perms:
            for v in perms:
                if not bruhat_leq(u, v):
                    continue
                members = bruhat_interval(u, v)
                cases = [members, rng.sample(members, rng.randint(1, len(members)))]
                cases += [members + (z,) for z in perms if z not in members]
                for pts in cases:
                    assert is_bip(pts) == _quadratic_is_bip(pts), pts
    s4 = list(permutations(range(1, 5)))
    for _ in range(500):
        pts = rng.sample(s4, rng.randint(1, len(s4)))
        assert is_bip(pts) == _quadratic_is_bip(pts), pts


def test_enumerate_vertices_permutahedra():
    for n in (2, 3, 4):
        enum = enumerate_vertices(permutahedron_facets(n), n)
        assert set(enum.points) == {tuple(p) for p in permutahedron_vertices(n)}
        assert len(enum.points) == len(enum) == len(permutahedron_vertices(n))


def test_enumerate_vertices_cut_cell():
    cut = list(permutahedron_facets(4)) + [
        LinearConstraint(frozenset({1, 2}), "<=", Fraction(4))
    ]
    enum = enumerate_vertices(cut, 4)
    assert all(is_permutation_point(p) for p in enum.points)
    members = [tuple(int(x) for x in p) for p in enum.points]
    assert is_bip(members) == BruhatInterval(identity(4), (3, 1, 4, 2))


def test_enumerate_vertices_integer_cut_creates_no_vertices():
    # an integer level never crosses an edge strictly (edge sums move by at
    # most one), so the cut keeps permutation vertices only; the square face
    # it splits is crossed along a diagonal
    cut = list(permutahedron_facets(4)) + [
        LinearConstraint(frozenset({1, 2}), "<=", Fraction(5))
    ]
    enum = enumerate_vertices(cut, 4)
    assert all(is_permutation_point(p) for p in enum.points)
    assert len(enum.points) == 16


def test_enumerate_vertices_fractional_cut():
    cut = list(permutahedron_facets(4)) + [
        LinearConstraint(frozenset({1, 2}), "<=", Fraction(9, 2))
    ]
    enum = enumerate_vertices(cut, 4)
    stray = [p for p in enum.points if not is_permutation_point(p)]
    assert stray  # fractional vertices where edges cross the half-integer level
    assert (1, Fraction(7, 2), 2, Fraction(7, 2)) in enum.points

    def by_denominators(p):  # the reference: every coordinate an integer, then sorted
        vals = [Fraction(x) for x in p]
        return all(f.denominator == 1 for f in vals) and sorted(vals) == list(range(1, len(p) + 1))

    mixed = product((1, 2, 3, Fraction(2), Fraction(7, 2)), repeat=3)
    for p in chain(enum.points, mixed):
        assert is_permutation_point(p) == by_denominators(p), p


def test_enumerate_vertices_box_without_ambient_equality():
    # with no ambient equality, x1 and x2 are complementary supports in [2]
    # whose tight pairs are the corners, so they must be solved, not skipped
    box = [
        LinearConstraint(frozenset({i}), sense, Fraction(level))
        for i in (1, 2)
        for sense, level in ((">=", 0), ("<=", 1))
    ]
    enum = enumerate_vertices(box, 2)
    assert enum.points == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_enumerate_vertices_empty_system():
    cons = list(permutahedron_facets(3)) + [
        LinearConstraint(frozenset({1}), ">=", Fraction(99))
    ]
    enum = enumerate_vertices(cons, 3)
    assert enum.points == () and len(enum) == 0


def test_affine_rank():
    assert affine_rank([(1, 2, 3)]) == 0
    assert affine_rank([(1, 2, 3), (2, 1, 3)]) == 1
    assert affine_rank([tuple(p) for p in permutahedron_vertices(4)]) == 3
    assert affine_rank([]) == 0
    a, b = (Fraction(1, 2), 0, 1), (0, Fraction(1, 3), 1)
    assert affine_rank([a, b, (Fraction(1, 2), 0, Fraction(3, 2))]) == 2
    assert affine_rank([a, b, (Fraction(-1, 2), Fraction(2, 3), 1)]) == 1  # a + 2(b - a)


def _fraction_rref(rows):
    # slow reference: Gauss-Jordan over the rationals, pivots scaled to 1
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        mat[rank] = [x / mat[rank][col] for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
    return mat[:rank]


def _random_matrix(rng, nrows, ncols):
    entries = (0, 0, 0, 1, -1, 2, -3, 5)
    rows = [[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.4:  # make one row a combination of the others
        b = rng.randrange(nrows)
        coeffs = [rng.randint(-2, 2) for _ in range(nrows)]
        rows[b] = [
            sum(c * row[col] for t, (c, row) in enumerate(zip(coeffs, rows)) if t != b)
            for col in range(ncols)
        ]
    return rows


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(20240611)
    singular = solved = 0
    for _ in range(3000):
        rows = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 8))
        ref = _fraction_rref(rows)
        pivots, red = _eliminate(rows)
        assert _matrix_rank_int(rows) == len(pivots) == len(ref)
        # equal pivots, and exact division: scaling each row by its pivot
        # gives the rational reduced row echelon form
        assert len({row[col] for row, col in zip(red, pivots)}) <= 1
        assert [[Fraction(x, row[col]) for x in row] for row, col in zip(red, pivots)] == ref

        n = min(len(rows), len(rows[0]))
        a = [row[:n] for row in rows[:n]]
        b = [rng.randint(-5, 5) for _ in range(n)]
        got = _solve_square(a, b, n)
        if len(_fraction_rref(a)) < n:
            assert got is None
            singular += 1
            continue
        nums, den = got
        assert den > 0
        for row, rhs in zip(a, b):
            assert sum(x * y for x, y in zip(row, nums)) == rhs * den
        solved += 1
    assert singular > 300 and solved > 300


def test_point_and_constraint_json():
    p = (1, Fraction(7, 2), 2, Fraction(7, 2))
    assert point_to_json(p) == ["1", "7/2", "2", "7/2"]


def test_lpm_basis_count_matches_dp():
    from permsplit.verify import lattice_path_count

    for n in (4, 6):
        for k in (1, 2, 3):
            for u in combinations(range(1, n + 1), k):
                for l in combinations(range(1, n + 1), k):
                    if all(a <= b for a, b in zip(u, l)):
                        m = lpm_new(n, u, l)
                        assert len(lpm_bases(m)) == lattice_path_count(u, l, n)
                        assert _gale_count(u, l) == lattice_path_count(u, l, n)
