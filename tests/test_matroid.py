import random
from fractions import Fraction

import pytest

from permsplit.errors import DomainError, ExchangeAxiomError
from permsplit.lpm import to_set_matroid, uniform_lpm
from permsplit.matroid import (
    SetMatroid,
    circuits,
    flats,
    is_quotient,
    matroid_from_bases,
    matroid_from_json,
    matroid_from_rational_matrix,
    matroid_rank,
    matroid_to_json,
)

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
            r = matroid_rank(m, f)
            for e in m.ground() - f:
                assert matroid_rank(m, f | {e}) > r


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
