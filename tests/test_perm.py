import doctest
import importlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsplit.errors import DomainError
from permsplit.perm import (
    BruhatInterval,
    _prefix_lattice,
    bruhat_covers,
    bruhat_interval,
    bruhat_leq,
    bruhat_permutation_of_chain,
    chain_of_permutation,
    dual_interval,
    dual_permutation,
    identity,
    length,
    longest,
    perm,
    perm_from_str,
    perm_to_str,
    set_sequences,
)


def brute_inversions(p):
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p)))


def test_module_doctests():
    failures, _ = doctest.testmod(importlib.import_module("permsplit.perm"))
    assert failures == 0


def test_perm_validation():
    assert perm([3, 1, 2]) == (3, 1, 2)
    with pytest.raises(DomainError):
        perm([1, 1, 2])
    with pytest.raises(DomainError):
        perm([0, 1, 2])


def test_length():
    assert length(identity(4)) == 0
    assert length(longest(4)) == 6
    assert length((5, 1, 4, 2, 3)) == 6
    for p in permutations(range(1, 6)):
        assert length(p) == brute_inversions(p)


def test_covers():
    assert bruhat_covers(identity(3)) == {(2, 1, 3), (1, 3, 2)}
    assert bruhat_covers(longest(5)) == frozenset()
    assert bruhat_covers((1, 3, 2)) == {(3, 1, 2), (2, 3, 1)}


def test_covers_raise_length_by_one():
    for p in permutations(range(1, 5)):
        for q in bruhat_covers(p):
            assert length(q) == length(p) + 1


def test_covers_raise_lexicographic_order():
    # lexicographic order extends Bruhat order, so an interval's ends are its
    # lexicographic min and max (polytope.is_bip relies on this)
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            assert all(q > p for q in bruhat_covers(p)), p


def test_leq_examples():
    assert bruhat_leq((1, 3, 2, 4), (3, 4, 1, 2))
    assert bruhat_leq((2, 1, 4, 3), (3, 1, 4, 2))
    assert not bruhat_leq((3, 1, 4, 2), (2, 4, 1, 3))
    with pytest.raises(DomainError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_leq_matches_cover_reachability_s4():
    # oracle: transitive closure of the cover digraph
    perms = sorted(permutations(range(1, 5)), key=length, reverse=True)
    reach = {}
    for p in perms:
        acc = {p}
        for q in bruhat_covers(p):
            acc |= reach[q]
        reach[p] = acc
    for u in perms:
        for v in perms:
            assert bruhat_leq(u, v) == (v in reach[u])


def sorted_prefix_leq(u, v):
    """Reference: the tableau criterion on sorted prefixes, compared entrywise."""
    if len(u) != len(v):
        raise DomainError(f"mismatched sizes: {len(u)} vs {len(v)}")
    return all(
        a <= b for k in range(1, len(u)) for a, b in zip(sorted(u[:k]), sorted(v[:k]))
    )


def test_leq_matches_sorted_prefixes_exhaustively():
    for n in range(6):
        perms = list(permutations(range(1, n + 1)))
        for u in perms:
            for v in perms:
                assert bruhat_leq(u, v) == sorted_prefix_leq(u, v), (u, v)
    for u, v in (((1, 2), (1, 2, 3)), ((2, 1, 3), (1,)), ((), (1,))):
        with pytest.raises(DomainError):
            bruhat_leq(u, v)


def test_interval():
    assert set(bruhat_interval(identity(4), longest(4))) == set(
        permutations(range(1, 5))
    )
    assert bruhat_interval((2, 1, 3), (2, 1, 3)) == ((2, 1, 3),)
    # frozen: the ten members of [1324, 3412], checked against the cover oracle
    assert len(bruhat_interval((1, 3, 2, 4), (3, 4, 1, 2))) == 10
    with pytest.raises(DomainError):
        bruhat_interval((3, 4, 1, 2), (1, 3, 2, 4))
    with pytest.raises(DomainError, match="mismatched sizes"):
        bruhat_interval((1, 2, 3), (2, 1))


def filter_interval(u, v):
    # the reference: every permutation of [n] tested against both ends
    n = len(u)
    return tuple(
        z for z in permutations(range(1, n + 1)) if bruhat_leq(u, z) and bruhat_leq(z, v)
    )


def test_interval_matches_filter_exhaustively():
    # filter_interval with the order tabulated once, on every comparable pair
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        above = {u: {v for v in perms if bruhat_leq(u, v)} for u in perms}
        for u in perms:
            for v in above[u]:
                expected = tuple(z for z in perms if z in above[u] and v in above[z])
                assert bruhat_interval(u, v) == expected, (u, v)


def test_interval_matches_filter_sampled():
    rng = random.Random(20240801)
    for n, count in ((6, 12), (7, 5), (8, 2)):
        pairs = []
        while len(pairs) < count:
            u, v = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            if bruhat_leq(v, u):
                u, v = v, u
            if bruhat_leq(u, v):
                pairs.append((u, v))
        e, w = identity(n), longest(n)
        single = pairs[0][1]
        for u, v in pairs + [(e, w), (e, e), (w, w), (single, single)]:
            assert bruhat_interval(u, v) == filter_interval(u, v), (u, v)


@st.composite
def ordered_pairs(draw):
    n = draw(st.integers(1, 6))
    u, v = (tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(2))
    return (v, u) if bruhat_leq(v, u) else (u, v)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ordered_pairs())
def test_interval_matches_filter_property(pair):
    u, v = pair
    if bruhat_leq(u, v):
        assert bruhat_interval(u, v) == filter_interval(u, v)
    else:
        with pytest.raises(DomainError):
            bruhat_interval(u, v)


def test_prefix_lattice_is_the_members_prefix_sets():
    # the lattice's sets, by size, against the prefix value sets of the members
    # filtered from all of S_n, on every comparable pair
    for n in range(1, 6):
        perms = list(permutations(range(1, n + 1)))
        above = {u: {v for v in perms if bruhat_leq(u, v)} for u in perms}
        for u in perms:
            for v in above[u]:
                members = [z for z in perms if z in above[u] and v in above[z]]
                layers = _prefix_lattice(u, v)
                assert len(layers) == n + 1
                for k, layer in enumerate(layers):
                    prefixes = {sum(1 << x - 1 for x in z[:k]) for z in members}
                    assert set(layer) == prefixes, (u, v, k)
                    for a, out in layer.items():
                        assert all(m == a | 1 << x - 1 and m in layers[k + 1] for (x,), m in out)


def test_dual_permutation():
    assert dual_permutation((3, 1, 6, 5, 4, 2)) == (4, 6, 1, 2, 3, 5)
    assert dual_permutation((1, 3, 2, 4, 5, 6)) == (6, 4, 5, 3, 2, 1)
    assert dual_permutation(identity(5)) == longest(5)
    for p in permutations(range(1, 6)):
        assert dual_permutation(dual_permutation(p)) == p
        assert length(p) + length(dual_permutation(p)) == 10


def test_dual_reverses_order():
    for u in permutations(range(1, 5)):
        for v in permutations(range(1, 5)):
            assert bruhat_leq(u, v) == bruhat_leq(
                dual_permutation(v), dual_permutation(u)
            )


@st.composite
def raised_pairs(draw, low=3):
    # u, any w, and v raised from u by swaps that each go up in Bruhat order
    n = draw(st.integers(low, 30))
    u, w = (tuple(draw(st.permutations(range(1, n + 1)))) for _ in range(2))
    v = list(u)
    positions = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(positions, positions), max_size=8)):
        i, j = sorted((i, j))
        if v[i] < v[j]:
            v[i], v[j] = v[j], v[i]
    return u, tuple(v), w


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(raised_pairs())
def test_duality_involutions_property(triple):
    u, v, w = triple
    n = len(u)
    du, dv, dw = (dual_permutation(p) for p in (u, v, w))
    assert dual_permutation(du) == u
    assert length(u) + length(du) == n * (n - 1) // 2
    assert bruhat_leq(u, w) == bruhat_leq(dw, du)
    iv = BruhatInterval(u, v)
    assert dual_interval(iv) == BruhatInterval(dv, du)
    assert dual_interval(dual_interval(iv)) == iv


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(raised_pairs(7))
def test_leq_matches_sorted_prefixes_property(triple):
    # u <= v by construction, and v <= u fails unless a swap was made
    u, v, w = triple
    assert bruhat_leq(u, v) and bruhat_leq(v, u) == (u == v)
    for a, b in ((u, v), (v, u), (u, w), (w, u)):
        assert bruhat_leq(a, b) == sorted_prefix_leq(a, b), (a, b)


def test_dual_interval():
    iv = dual_interval(BruhatInterval(identity(6), (3, 1, 6, 5, 4, 2)))
    assert iv == BruhatInterval((4, 6, 1, 2, 3, 5), longest(6))
    assert dual_interval(BruhatInterval(identity(4), longest(4))) == BruhatInterval(
        identity(4), longest(4)
    )
    iv2 = dual_interval(BruhatInterval((1, 3, 2, 4, 5, 6), longest(6)))
    assert iv2 == BruhatInterval(identity(6), (6, 4, 5, 3, 2, 1))


def test_set_sequences():
    inc, dec, e_rest, w_rest = set_sequences({3, 5, 6}, 7)
    assert (inc, dec, e_rest, w_rest) == (
        (3, 5, 6),
        (6, 5, 3),
        (1, 2, 4, 7),
        (7, 4, 2, 1),
    )
    assert inc + e_rest == (3, 5, 6, 1, 2, 4, 7)
    assert w_rest + dec == (7, 4, 2, 1, 6, 5, 3)
    assert set_sequences(set(), 3) == ((), (), (1, 2, 3), (3, 2, 1))


def test_chain_to_permutation():
    chain = ({1}, {1, 3}, {1, 3, 5}, {1, 3, 4, 5}, {1, 2, 3, 4, 5})
    assert bruhat_permutation_of_chain(chain) == (5, 1, 4, 2, 3)
    assert bruhat_permutation_of_chain(({3}, {2, 3}, {1, 2, 3})) == (1, 2, 3)
    assert bruhat_permutation_of_chain(({1}, {1, 2}, {1, 2, 3})) == (3, 2, 1)
    with pytest.raises(DomainError):
        bruhat_permutation_of_chain(({1}, {1, 2, 3}))
    with pytest.raises(DomainError):
        bruhat_permutation_of_chain(({1}, {2, 3}, {1, 2, 3}))


def test_chain_round_trip():
    assert chain_of_permutation((5, 1, 4, 2, 3)) == (
        frozenset({1}),
        frozenset({1, 3}),
        frozenset({1, 3, 5}),
        frozenset({1, 3, 4, 5}),
        frozenset({1, 2, 3, 4, 5}),
    )
    for n in range(1, 7):
        for p in permutations(range(1, n + 1)):
            assert bruhat_permutation_of_chain(chain_of_permutation(p)) == p


def test_extremes_bound_everything():
    for p in permutations(range(1, 6)):
        assert bruhat_leq(identity(5), p)
        assert bruhat_leq(p, longest(5))


def test_text_forms():
    assert perm_to_str((3, 1, 4, 2)) == "3142"
    assert perm_from_str("3142") == (3, 1, 4, 2)
    big = tuple([10] + list(range(1, 10)))
    assert perm_from_str(perm_to_str(big)) == big
    with pytest.raises(DomainError):
        perm_from_str("31x2")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(10, 30).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_text_round_trip_comma_form(values):
    p = tuple(values)
    text = perm_to_str(p)
    assert text == ",".join(map(str, p))
    assert perm_from_str(text) == p
