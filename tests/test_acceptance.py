"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is exact (integer or rational arithmetic); there are no numeric
tolerances to tune.  Run with ``pytest -s tests/test_acceptance.py`` to see
one PASS line per criterion.

Two sub-claims are asserted exactly as specified although the underlying
geometry contradicts them; they fail with an explanatory message and the
analysis lives in the project notes:

* criterion 6 expects exactly two maximal refinement-poset elements at n=4,
  but the three parallel stacks (for example x1=2 together with x1=3) are
  genuinely maximal: every extension of a stack creates new vertices;
* criterion 9 expects a non-permutation vertex from the integer cut
  x1+x2 <= 5, but integer levels never cross permutahedron edges strictly
  (edge sums change by at most one), so no vertex can appear.
"""

import random
from fractions import Fraction

from permsplit.lpm import lpfm_interval, lpm_bases, lpm_new, to_set_matroid
from permsplit.matroid import SetMatroid, is_quotient, matroid_from_rational_matrix
from permsplit.perm import BruhatInterval, bruhat_leq, dual_interval, identity, longest, perm
from permsplit.polytope import (
    LinearConstraint,
    enumerate_vertices,
    flag_polytope_vertices,
    is_permutation_point,
    permutahedron_facets,
    permutahedron_vertices,
)
from permsplit.splits import (
    SplitHyperplane,
    check_split,
    dual_hyperplane,
    exhaustive_scan,
    predicted_cells,
    theorem_hyperplanes,
)
from permsplit.subdivision import SubdivisionRejection, build_poset, subdivision_from_hyperplanes
from permsplit.verify import (
    all_lpfm_flags,
    all_lpms,
    cover_reachability,
    lattice_path_count,
    sample_lpfm_flags,
    schubert_flags,
)

SEED = 20240801


def H(n, support, level):
    return SplitHyperplane(n=n, support=frozenset(support), level=level)


def random_matroid(rng: random.Random, n: int) -> SetMatroid:
    """Column matroid of a random small-integer matrix (always valid)."""
    r = rng.randint(1, min(3, n))
    rows = [
        [Fraction(rng.choice((-1, 0, 0, 1, 1, 2, 3))) for _ in range(n)]
        for _ in range(r)
    ]
    return matroid_from_rational_matrix(rows)


def random_matroid_pairs(rng: random.Random, count: int, max_n: int = 6):
    """Mixed quotient and non-quotient pairs on a shared ground set."""
    pairs = []
    while len(pairs) < count:
        n = rng.randint(2, max_n)
        if rng.random() < 0.4:
            # top rows of a shared matrix: a genuine flag, hence a quotient
            r = rng.randint(2, min(4, n))
            rows = [
                [Fraction(rng.choice((-1, 0, 0, 1, 1, 2))) for _ in range(n)]
                for _ in range(r)
            ]
            top = rng.randint(1, r - 1)
            m = matroid_from_rational_matrix(rows[:top])
            big = matroid_from_rational_matrix(rows)
            pairs.append((m, big))
        else:
            pairs.append((random_matroid(rng, n), random_matroid(rng, n)))
    return pairs


def test_criterion_1_bruhat_oracle():
    for n in (3, 4, 5):
        reach = cover_reachability(n)
        perms = permutahedron_vertices(n)
        for u in perms:
            for v in perms:
                assert bruhat_leq(u, v) == (v in reach[u]), (u, v)
    print("ACCEPTANCE 1 bruhat-oracle (n=3,4,5 exhaustive): PASS")


def test_criterion_2_interval_polytope_correspondence():
    for n in (3, 4):
        flags = {f: None for f in all_lpfm_flags(n)}
        for f in schubert_flags(n):
            flags.setdefault(f, None)
        for flag in flags:
            iv = lpfm_interval(flag)
            expected = frozenset(tuple(z) for z in iv.members())
            actual = flag_polytope_vertices(
                [to_set_matroid(m) for m in flag.constituents]
            )
            assert actual == expected, flag
    sampled = sample_lpfm_flags(5, 200, random.Random(SEED))
    assert len(sampled) >= 200
    for flag in sampled:
        iv = lpfm_interval(flag)
        expected = frozenset(tuple(z) for z in iv.members())
        actual = flag_polytope_vertices([to_set_matroid(m) for m in flag.constituents])
        assert actual == expected, flag
    print("ACCEPTANCE 2 interval-polytope match (n=3,4 exhaustive; 200 at n=5): PASS")


def test_criterion_3_theorem_hyperplanes():
    for n in (3, 4, 5):
        for h in theorem_hyperplanes(n):
            report = check_split(h)
            assert report.verdict == "good-split", h
            assert report.cells == predicted_cells(h), h
    assert set(theorem_hyperplanes(4)) == {
        H(4, {1, 2}, 4), H(4, {1, 2}, 6),
        H(4, {1}, 2), H(4, {1}, 3), H(4, {4}, 2), H(4, {4}, 3),
    }
    print("ACCEPTANCE 3 theorem hyperplanes split with predicted cells: PASS")


def test_criterion_4_classification():
    expected_counts = {3: 2, 4: 6, 5: 10}
    for n in (3, 4, 5):
        scanned = exhaustive_scan(n)
        assert len(scanned) == expected_counts[n]
        assert set(scanned) == set(theorem_hyperplanes(n))
    assert check_split(H(4, {1, 2}, 5)).verdict == "bad-square"
    assert check_split(H(4, {3}, 3)).verdict == "bad-hexagon"
    print("ACCEPTANCE 4 exhaustive classification (n=3,4,5) and bad examples: PASS")


def test_criterion_5_duality():
    for n in (3, 4, 5):
        for h in theorem_hyperplanes(n):
            hd = dual_hyperplane(h)
            assert dual_hyperplane(hd) == h
            cells = check_split(h).cells
            assert check_split(hd).cells == (
                dual_interval(cells[1]),
                dual_interval(cells[0]),
            )
        for r in range(2, n):
            assert dual_hyperplane(H(n, {1}, r)) == H(n, {1}, n - r + 1)
    # prefix families exchange under duality (width fixed, level complemented)
    for n in (4, 5):
        for j in range(2, n - 1):
            low = H(n, set(range(1, j + 1)), j * (j + 1) // 2 + 1)
            high = H(n, set(range(1, j + 1)), sum(range(n - j + 2, n + 1)) + n - j)
            assert dual_hyperplane(low) == high
    assert dual_interval(
        BruhatInterval(identity(6), perm((3, 1, 6, 5, 4, 2)))
    ) == BruhatInterval(perm((4, 6, 1, 2, 3, 5)), longest(6))
    assert dual_interval(
        BruhatInterval(perm((1, 3, 2, 4, 5, 6)), longest(6))
    ) == BruhatInterval(identity(6), perm((6, 4, 5, 3, 2, 1)))
    print("ACCEPTANCE 5 duality (involution, family swap, fixed examples): PASS")


def test_criterion_6_l4_reproduction():
    poset = build_poset(4)
    assert len(poset.minimal_indices()) == 6

    sub = subdivision_from_hyperplanes(
        4, [H(4, {1, 2}, 6), H(4, {1}, 2), H(4, {4}, 3)]
    )
    got = {(c.interval.lo, c.interval.hi) for c in sub.cells}
    assert got == {
        ((1, 2, 3, 4), (2, 4, 1, 3)),
        ((1, 2, 4, 3), (2, 4, 3, 1)),
        ((2, 1, 3, 4), (4, 2, 1, 3)),
        ((2, 1, 4, 3), (4, 2, 3, 1)),
        ((2, 4, 1, 3), (4, 3, 2, 1)),
    }

    rej = subdivision_from_hyperplanes(4, [H(4, {1, 2}, 6), H(4, {4}, 2)])
    assert isinstance(rej, SubdivisionRejection)
    assert rej.reason == "new-vertex"
    print("ACCEPTANCE 6 poset of subdivisions at n=4 (minimal elements, "
          "five-cell refinement, new-vertex rejection): PASS")


def test_criterion_6_exactly_two_maximal_elements():
    maximal_count = len(build_poset(4).maximal_indices())
    assert maximal_count == 2, (
        f"{maximal_count} maximal elements: besides the two five-cell "
        "refinements, the three parallel stacks (x1=2 & x1=3, x4=2 & x4=3, "
        "x1+x2=4 & x1+x2=6) are genuinely maximal, because every extension "
        "of a stack creates new vertices (verified exactly; witnesses such "
        "as (2,2,4,2)); documented in the README"
    )
    print("ACCEPTANCE 6b exactly two maximal elements at n=4: PASS")


def test_criterion_7_quotient_criteria_agree():
    for n in range(1, 6):
        mats = [to_set_matroid(m) for m in all_lpms(n)]
        for a in mats:
            for b in mats:
                v1 = is_quotient(a, b, 1)
                assert v1 == is_quotient(a, b, 2) == is_quotient(a, b, 3), (a, b)
    rng = random.Random(SEED)
    pairs = random_matroid_pairs(rng, 500, max_n=6)
    for a, b in pairs:
        v1 = is_quotient(a, b, 1)
        assert v1 == is_quotient(a, b, 2) == is_quotient(a, b, 3), (a, b)
    print("ACCEPTANCE 7 quotient criteria agree (LPM pairs n<=5 exhaustive; "
          "500 random matroid pairs n<=6): PASS")


def test_criterion_8_good_pair_soundness_completeness():
    for n in range(1, 7):
        for m in all_lpms(n, min_rank=1):
            big = to_set_matroid(m)
            for j in range(1, m.k + 1):
                for i in range(1, m.k + 1):
                    u, l = m.U[j - 1], m.L[i - 1]
                    is_good = max(0, u - l) <= j - i
                    u_rest = tuple(x for x in m.U if x != u)
                    l_rest = tuple(x for x in m.L if x != l)
                    if all(a <= b for a, b in zip(u_rest, l_rest)):
                        child = to_set_matroid(lpm_new(n, u_rest, l_rest))
                        is_quot = is_quotient(child, big)
                    else:
                        is_quot = False
                    assert is_good == is_quot, (m, u, l)
    print("ACCEPTANCE 8 good pairs = elementary quotients (n<=6 exhaustive): PASS")


def test_criterion_9_exact_kernel():
    import math

    for n in (2, 3, 4, 5):
        enum = enumerate_vertices(permutahedron_facets(n), n)
        assert len(enum.points) == math.factorial(n)
        assert set(enum.points) == {tuple(p) for p in permutahedron_vertices(n)}

    rng = random.Random(SEED)
    for _ in range(1000):
        size = rng.randint(2, 9)
        k = rng.randint(1, size)
        a = sorted(rng.sample(range(1, size + 1), k))
        b = sorted(rng.sample(range(1, size + 1), k))
        u = tuple(min(x, y) for x, y in zip(a, b))
        l = tuple(max(x, y) for x, y in zip(a, b))
        assert len(lpm_bases(lpm_new(size, u, l))) == lattice_path_count(u, l, size)
    print("ACCEPTANCE 9 exact kernel (n! vertices for n<=5; 1000 basis counts "
          "against route counting): PASS")


def test_criterion_9_integer_cut_vertex_claim():
    cut = list(permutahedron_facets(4)) + [
        LinearConstraint(frozenset({1, 2}), "<=", Fraction(5))
    ]
    enum = enumerate_vertices(cut, 4)
    assert any(not is_permutation_point(p) for p in enum.points), (
        "the cut x1+x2 <= 5 yields only permutation vertices: an integer "
        "level never crosses a permutahedron edge strictly (edge sums change "
        "by at most one), so no new vertex can appear; the plane meets the "
        "split square along its diagonal, through two existing vertices; a "
        "fractional level such as 9/2 does create vertices"
    )
    print("ACCEPTANCE 9b integer cut produces a non-permutation vertex: PASS")
