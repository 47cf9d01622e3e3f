import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations

import pytest

from permsplit.errors import DomainError, ExchangeAxiomError
from permsplit.lpm import to_set_matroid, uniform_lpm
from permsplit.matroid import (
    SetMatroid,
    circuits,
    exchange_violation,
    flats,
    is_quotient,
    matroid_from_bases,
    matroid_from_json,
    matroid_from_rational_matrix,
    matroid_to_json,
)
from permsplit.verify import all_lpms

# the rank-4 point configuration used throughout: columns of this matrix
EXAMPLE_MATRIX = [
    [1, 0, 1, 0, 1, 1, 1],
    [0, 1, 1, 0, 2, 2, 1],
    [0, 0, 0, 1, 1, 2, 1],
    [0, 0, 0, 0, 0, 0, 1],
]


def B(*sets):
    return [frozenset(s) for s in sets]


def test_from_bases_uniform():
    m = matroid_from_bases(3, B({1, 2}, {1, 3}, {2, 3}))
    assert m == to_set_matroid(uniform_lpm(2, 3))


def test_from_bases_exchange_witness():
    with pytest.raises(ExchangeAxiomError) as exc:
        matroid_from_bases(4, B({1, 2}, {3, 4}))
    assert exc.value.basis1 == {1, 2}
    assert exc.value.basis2 == {3, 4}
    assert exc.value.element == 1


def test_validation_builds_the_table_criterion_3_reads():
    from permsplit import matroid

    # two matroids that hold the same elements share one labelling, so the
    # table that validation builds for each is the one criterion 3 reads
    matroid._swap_table.cache_clear()
    small = matroid_from_json({"n": 5, "bases": [[1], [2], [3], [4]]})
    big = matroid_from_json({"n": 5, "bases": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]]})
    assert matroid._swap_table.cache_info().misses == 2
    assert is_quotient(small, big, 3) and not is_quotient(big, small, 3)
    assert matroid._swap_table.cache_info().misses == 2  # criterion 3 reused both tables


def test_from_bases_rank_one_singletons():
    m = matroid_from_bases(4, B({2}, {3}, {4}))
    assert m.rank == 1 and len(m.bases) == 3


def test_from_bases_rejects_mixed_sizes():
    with pytest.raises(DomainError):
        matroid_from_bases(3, B({1}, {2, 3}))


def test_circuits():
    assert circuits(to_set_matroid(uniform_lpm(2, 3))) == {frozenset({1, 2, 3})}
    m = matroid_from_bases(3, B({1}, {3}))
    assert circuits(m) == {frozenset({2}), frozenset({1, 3})}
    assert circuits(to_set_matroid(uniform_lpm(4, 4))) == frozenset()


def test_flats():
    got = flats(to_set_matroid(uniform_lpm(2, 3)))
    assert got == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
        frozenset({1, 2, 3}),
    }
    assert len(flats(to_set_matroid(uniform_lpm(3, 3)))) == 8
    rank0 = SetMatroid(n=3, bases=frozenset([frozenset()]), rank=0)
    assert flats(rank0) == {frozenset({1, 2, 3})}


def test_flats_are_rank_closed():
    for m in (to_set_matroid(uniform_lpm(2, 4)), matroid_from_bases(3, B({1}, {3}))):
        for f in flats(m):
            r = ref_rank(m, f)
            for e in m.ground() - f:
                assert ref_rank(m, f | {e}) > r


def test_quotient_criteria_on_named_pairs():
    big = matroid_from_rational_matrix(EXAMPLE_MATRIX)
    small = matroid_from_rational_matrix(EXAMPLE_MATRIX[:2])
    for c in (1, 2, 3):
        assert is_quotient(small, big, c)
    m1 = matroid_from_bases(3, B({1}, {3}))
    m2 = matroid_from_bases(3, B({1, 2}, {2, 3}))
    for c in (1, 2, 3):
        assert is_quotient(m1, m2, c)
    for c in (1, 2, 3):
        assert not is_quotient(to_set_matroid(uniform_lpm(2, 4)), to_set_matroid(uniform_lpm(1, 4)), c)
    with pytest.raises(DomainError):
        is_quotient(to_set_matroid(uniform_lpm(1, 3)), to_set_matroid(uniform_lpm(2, 4)))


def test_quotient_implies_rank_drop():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(2, 5)
        a = matroid_from_rational_matrix(
            [[rng.randint(-1, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        )
        b = matroid_from_rational_matrix(
            [[rng.randint(-1, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        )
        if is_quotient(a, b):
            assert a.rank <= b.rank


def test_from_matrix():
    ident = matroid_from_rational_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert ident.bases == frozenset([frozenset({1, 2, 3})])

    top2 = matroid_from_rational_matrix(EXAMPLE_MATRIX[:2])
    assert top2.rank == 2
    assert all(4 not in b for b in top2.bases)  # 4 is a loop
    for pair in ({3, 7}, {5, 6}):  # parallel classes
        assert frozenset(pair) not in top2.bases

    full = matroid_from_rational_matrix(EXAMPLE_MATRIX)
    assert full.rank == 4 and full.n == 7
    # representable data always revalidates
    assert matroid_from_bases(full.n, full.bases) == full


def test_from_matrix_is_a_matroid_by_theorem():
    # no exchange test runs on a column matroid; the full one agrees
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randint(1, 7)
        rows = [[rng.choice((-2, -1, 0, 0, 1, 1, 2, 3)) for _ in range(n)]
                for _ in range(rng.randint(1, 4))]
        m = matroid_from_rational_matrix(rows)
        assert exchange_violation(m.bases) is None, rows
        assert m == matroid_from_bases(m.n, m.bases), rows


def test_from_matrix_cost_follows_its_rank_not_its_rows():
    # the C(14, 7) column sets are tested on a row basis, so redundant rows cost
    # one elimination, not one more row in each of the 3,432 rank tests
    rng = random.Random(7)
    rows = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(7)]
    start = time.perf_counter()
    m = matroid_from_rational_matrix([rows[i % 7] for i in range(1000)])
    assert time.perf_counter() - start < 1.0
    assert m.rank == 7 and m == matroid_from_rational_matrix(rows)


def test_from_matrix_accepts_strings_and_rank_deficiency():
    m = matroid_from_rational_matrix([["1/2", "0"], ["1", "0"]])
    assert m.rank == 1 and m.bases == frozenset([frozenset({1})])
    z = matroid_from_rational_matrix([[0, 0], [0, 0]])
    assert z.rank == 0 and z.bases == frozenset([frozenset()])


def test_json_round_trip():
    m = matroid_from_bases(4, B({1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}))
    assert matroid_from_json(matroid_to_json(m)) == m
    doc = matroid_to_json(m)
    assert doc["bases"] == sorted(doc["bases"])


def test_rational_matrix_is_exact():
    # 1/3 + 1/3 + 1/3 must equal exactly 1, which floats would miss
    third = Fraction(1, 3)
    m = matroid_from_rational_matrix([[third, third, third], [1, 1, 1]])
    assert m.rank == 1


# --- the frozenset reference: every subset and every basis, one at a time


def powerset(iterable):
    s = list(iterable)
    return chain.from_iterable(combinations(s, r) for r in range(len(s) + 1))


def ref_exchange_violation(bases):
    blist = sorted(bases, key=lambda b: tuple(sorted(b)))
    bset = set(bases)
    for b1 in blist:
        for b2 in blist:
            for x in sorted(b1 - b2):
                if not any((b1 - {x}) | {y} in bset for y in b2 - b1):
                    return b1, b2, x
    return None


def ref_rank(m, subset):
    s = frozenset(subset)
    return max(len(b & s) for b in m.bases)


def ref_independent(m, subset):
    s = frozenset(subset)
    return any(s <= b for b in m.bases)


@lru_cache(maxsize=None)
def ref_circuits(m):
    found = []
    for size in range(1, m.n + 1):
        for c in combinations(range(1, m.n + 1), size):
            cs = frozenset(c)
            if not ref_independent(m, cs) and not any(circ < cs for circ in found):
                found.append(cs)
    return frozenset(found)


@lru_cache(maxsize=None)
def ref_flats(m):
    out = []
    ground = range(1, m.n + 1)
    for s in powerset(ground):
        fs = frozenset(s)
        r = ref_rank(m, fs)
        if all(ref_rank(m, fs | {e}) > r for e in ground if e not in fs):
            out.append(fs)
    return frozenset(out)


def ref_is_quotient(m, n, criterion):
    if criterion == 1:
        cm = ref_circuits(m)
        return all(frozenset().union(*(c for c in cm if c <= circ)) == circ for circ in ref_circuits(n))
    if criterion == 2:
        return ref_flats(m) <= ref_flats(n)
    mb = sorted(m.bases, key=lambda b: tuple(sorted(b)))
    return all(
        any(
            bp <= b
            and all((b - {q}) | {p} in n.bases for q in bp if (bp - {q}) | {p} in m.bases)
            for bp in mb
        )
        for b in n.bases
        for p in sorted(n.ground() - b)
    )


def assert_matches_reference(m):
    assert circuits(m) == ref_circuits(m), m
    assert flats(m) == ref_flats(m), m


def random_family(rng, n, k):
    ksets = [frozenset(c) for c in combinations(range(1, n + 1), k)]
    return frozenset(rng.sample(ksets, rng.randint(1, len(ksets))))


def test_kernel_matches_reference_on_every_lpm():
    for n in range(6):
        lpms = [to_set_matroid(m) for m in all_lpms(n)]
        for m in lpms:
            assert_matches_reference(m)
        for a in lpms:
            for b in lpms:
                for c in (1, 2, 3):
                    assert is_quotient(a, b, c) == ref_is_quotient(a, b, c), (a, b, c)


def test_kernel_matches_reference_on_random_families():
    rng = random.Random(19)
    matroids = {n: [] for n in range(7)}
    for i in range(300):
        # a family of rank 0, 1, n - 1 or n is always a matroid, so every other draw has 2 <= k <= n - 2
        n = rng.randint(0, 6) if i % 2 else rng.randint(4, 6)
        family = random_family(rng, n, rng.randint(0, n) if i % 2 else rng.randint(2, n - 2))
        witness = ref_exchange_violation(family)
        assert exchange_violation(family) == witness, family
        if witness is not None:
            with pytest.raises(ExchangeAxiomError) as exc:
                matroid_from_bases(n, family)
            assert str(exc.value) == str(ExchangeAxiomError(*witness))
        m = SetMatroid(n, family, len(next(iter(family))))  # a matroid or not
        assert_matches_reference(m)
        if witness is None:
            matroids[n].append(m)
    assert sum(map(len, matroids.values())) >= 60
    for same_n in matroids.values():
        for a in same_n:
            for b in same_n:
                for c in (1, 2, 3):
                    assert is_quotient(a, b, c) == ref_is_quotient(a, b, c), (a, b, c)


def test_kernel_on_loops_and_coloops():
    rank0 = matroid_from_json({"n": 3, "bases": [[]]})  # three loops
    assert circuits(rank0) == {frozenset({x}) for x in (1, 2, 3)}
    assert flats(rank0) == {frozenset({1, 2, 3})}
    # 1 is a coloop, 4 and 5 are loops, 2 and 3 are parallel
    mixed = matroid_from_bases(5, B({1, 2}, {1, 3}))
    assert circuits(mixed) == {frozenset({4}), frozenset({5}), frozenset({2, 3})}
    assert flats(mixed) == {frozenset({4, 5}), frozenset({1, 4, 5}), frozenset({2, 3, 4, 5}),
                            frozenset({1, 2, 3, 4, 5})}
    zero5 = matroid_from_bases(5, [()])
    for m in (rank0, mixed, zero5):
        assert_matches_reference(m)
    for c in (1, 2, 3):
        assert is_quotient(zero5, mixed, c) and not is_quotient(mixed, zero5, c)
        assert is_quotient(mixed, mixed, c) and is_quotient(rank0, rank0, c)
