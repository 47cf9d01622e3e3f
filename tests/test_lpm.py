import random
from itertools import combinations

import pytest

from permsplit.errors import DomainError, GaleOrderError
from permsplit.lpm import (
    _flag_families,
    _is_lpm_family,
    elementary_quotient,
    flag_from_json,
    flag_of_interval,
    good_pair,
    good_pairs,
    is_lpm,
    lpfm_flag,
    lpfm_interval,
    lpm_bases,
    lpm_from_json,
    lpm_new,
    lpm_to_json,
    quotient_chain,
    to_set_matroid,
    uniform_lpm,
)
from permsplit.matroid import SetMatroid, exchange_violation, is_quotient, matroid_from_bases
from permsplit.perm import BruhatInterval, bruhat_leq, identity, longest
from permsplit.polytope import permutahedron_vertices
from permsplit.splits import check_split, theorem_hyperplanes


def gale_interval_brute(n, upper, lower):
    out = set()
    for b in combinations(range(1, n + 1), len(upper)):
        if all(u <= x <= l for u, x, l in zip(upper, b, lower)):
            out.add(frozenset(b))
    return out


def test_lpm_new():
    m = lpm_new(8, (1, 2, 4, 6), (3, 5, 6, 8))
    assert (m.n, m.k) == (8, 4)
    m2 = lpm_new(4, (1, 2), (2, 4))
    assert m2.U == (1, 2) and m2.L == (2, 4)
    with pytest.raises(GaleOrderError) as exc:
        lpm_new(4, (2, 4), (1, 2))
    assert exc.value.index == 1


def test_lpm_bases():
    m = lpm_new(8, (1, 2, 4, 6), (3, 5, 6, 8))
    bases = lpm_bases(m)
    assert len(bases) == 45  # frozen; equals the brute-force Gale interval
    assert bases == gale_interval_brute(8, m.U, m.L)
    m2 = lpm_new(4, (1, 2), (2, 4))
    assert lpm_bases(m2) == {
        frozenset(s) for s in ({1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4})
    }
    assert len(lpm_bases(uniform_lpm(2, 5))) == 10


def test_lpm_bases_satisfy_exchange():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for u in combinations(range(1, n + 1), k):
                for l in combinations(range(1, n + 1), k):
                    if all(a <= b for a, b in zip(u, l)):
                        m = lpm_new(n, u, l)
                        assert matroid_from_bases(n, lpm_bases(m)).rank == k


def test_good_pairs():
    m = lpm_new(8, (1, 2, 4, 7), (3, 5, 6, 8))
    with_u4 = [(p.u, p.l) for p in good_pairs(m) if p.u == 4]
    assert with_u4 == [(4, 3), (4, 5), (4, 6)]
    # uniform: (u_j, l_i) is good exactly when i <= j
    uni = uniform_lpm(3, 6)
    assert {(p.j, p.i) for p in good_pairs(uni)} == {
        (j, i) for j in (1, 2, 3) for i in (1, 2, 3) if i <= j
    }
    rank1 = lpm_new(5, (2,), (4,))
    assert [(p.u, p.l) for p in good_pairs(rank1)] == [(2, 4)]


def test_elementary_quotient():
    m = lpm_new(8, (1, 2, 4, 7), (3, 5, 6, 8))
    q = elementary_quotient(m, good_pair(m, 4, 5))
    assert (q.U, q.L) == ((1, 2, 7), (3, 6, 8))
    q2 = elementary_quotient(q, good_pair(q, 7, 6))
    assert (q2.U, q2.L) == ((1, 2), (3, 8))
    with pytest.raises(DomainError):
        good_pair(m, 4, 8)  # max(0, -4) = 0 > j - i = -1


def test_elementary_quotient_is_quotient():
    for m in (lpm_new(8, (1, 2, 4, 7), (3, 5, 6, 8)), uniform_lpm(2, 4)):
        for p in good_pairs(m):
            q = elementary_quotient(m, p)
            for criterion in (1, 2, 3):
                assert is_quotient(to_set_matroid(q), to_set_matroid(m), criterion)


def test_quotient_chain():
    hi = lpm_new(8, (1, 2, 4, 7), (3, 5, 6, 8))
    one = quotient_chain(lpm_new(8, (1, 2, 7), (3, 6, 8)), hi)
    assert [(p.u, p.l) for p, _ in one] == [(4, 5)]
    two = quotient_chain(lpm_new(8, (1, 2), (3, 8)), hi)
    assert [(p.u, p.l) for p, _ in two] == [(4, 5), (7, 6)]
    assert two[-1][1] == lpm_new(8, (1, 2), (3, 8))
    assert quotient_chain(lpm_new(4, (3, 4), (3, 4)), lpm_new(4, (1, 2), (1, 2))) is None
    assert quotient_chain(uniform_lpm(2, 4), uniform_lpm(2, 4)) == []


def test_is_lpm():
    assert is_lpm(to_set_matroid(uniform_lpm(2, 3))) == ((1, 2), (2, 3))
    partition = matroid_from_bases(4, [{1, 2}, {1, 4}, {2, 3}, {3, 4}])
    assert is_lpm(partition) is None  # Gale hull [12, 34] has six bases
    m = lpm_new(8, (1, 2, 4, 6), (3, 5, 6, 8))
    assert is_lpm(to_set_matroid(m)) == (m.U, m.L)


def test_lpfm_flag_completion_and_interval():
    flag = lpfm_flag(
        [lpm_new(4, (2,), (4,)), lpm_new(4, (1, 2), (2, 4)), lpm_new(4, (1, 2, 4), (2, 3, 4))]
    )
    assert flag.constituents[-1] == uniform_lpm(4, 4)
    iv = lpfm_interval(flag)
    assert iv == BruhatInterval((1, 3, 2, 4), (3, 4, 1, 2))


def test_lpfm_uniform_flag_interval():
    flag = lpfm_flag([uniform_lpm(k, 4) for k in range(1, 5)])
    assert lpfm_interval(flag) == BruhatInterval(identity(4), longest(4))


def test_lpfm_schubert_flag_has_identity_bottom():
    # Schubert lower paths chain as {4} c {3,4} c {2,3,4} c [4], so tau_L = e
    u_chain = [(2,), (2, 4), (1, 2, 4), (1, 2, 3, 4)]
    steps = [
        lpm_new(4, u, range(4 - k + 1, 5)) for k, u in enumerate(u_chain, 1)
    ]
    flag = lpfm_flag(steps)
    assert all(m.L == tuple(range(4 - m.k + 1, 5)) for m in flag.constituents)  # Schubert
    iv = lpfm_interval(flag)
    assert iv.lo == identity(4)
    assert iv.hi == (2, 4, 1, 3)


def test_lpfm_flag_rejects_non_quotients():
    with pytest.raises(DomainError):
        lpfm_flag([lpm_new(3, (3,), (3,)), lpm_new(3, (1, 2), (1, 2))])


def test_flag_of_interval():
    mats, ok = flag_of_interval(BruhatInterval(identity(3), longest(3)))
    assert ok
    assert [m.bases for m in mats] == [
        to_set_matroid(uniform_lpm(k, 3)).bases for k in (1, 2, 3)
    ]

    mats, ok = flag_of_interval(BruhatInterval((1, 3, 2, 4), (3, 4, 1, 2)))
    assert ok
    assert mats[0].bases == {frozenset({2}), frozenset({3}), frozenset({4})}
    assert mats[1].bases == lpm_bases(lpm_new(4, (1, 2), (2, 4)))
    assert mats[2].bases == lpm_bases(lpm_new(4, (1, 2, 4), (2, 3, 4)))

    mats, ok = flag_of_interval(BruhatInterval(identity(4), (2, 4, 3, 1)))
    assert ok
    for m in mats:
        u, l = is_lpm(m)
        assert l == tuple(range(4 - len(l) + 1, 5))  # Schubert


def _reference_flag_of_members(n, members):
    """The LPM-flag verdict as first defined, with its exchange and quotient tests."""
    families = [
        frozenset(frozenset(p + 1 for p in range(n) if z[p] >= n - i + 1) for z in members)
        for i in range(1, n + 1)
    ]
    matroids = tuple(
        SetMatroid(n=n, bases=fam, rank=i) for i, fam in enumerate(families, start=1)
    )
    verdict = (
        all(exchange_violation(fam) is None for fam in families)
        and all(is_lpm(m) is not None for m in matroids)
        and all(is_quotient(a, b) for a, b in zip(matroids, matroids[1:]))
    )
    return matroids, verdict


def test_flag_of_interval_matches_exchange_reference():
    small = [
        BruhatInterval(u, v)
        for n in range(1, 6)
        for u in permutahedron_vertices(n)
        for v in permutahedron_vertices(n)
        if bruhat_leq(u, v)
    ]
    cells = [c for n in (5, 6) for h in theorem_hyperplanes(n) for c in check_split(h).cells]
    verdicts = []
    for iv in small + cells:
        got = flag_of_interval(iv)
        assert got == _reference_flag_of_members(iv.n, iv.members()), iv
        verdicts.append(got[1])
    # both verdicts occur among the small intervals, and every good-split cell is a flag
    assert set(verdicts[: len(small)]) == {True, False}
    assert all(verdicts[len(small):])


def test_path_count_verdict_matches_is_lpm():
    # every comparable pair at n <= 5, and a seeded sample at n = 6..8
    pairs = [
        (u, v)
        for n in range(1, 6)
        for u in permutahedron_vertices(n)
        for v in permutahedron_vertices(n)
        if bruhat_leq(u, v)
    ]
    rng = random.Random(20261018)
    for n in (6, 7, 8):
        sampled = 0
        while sampled < 15:
            u, v = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            if bruhat_leq(v, u):
                u, v = v, u
            if bruhat_leq(u, v):
                pairs.append((u, v))
                sampled += 1
    verdicts = set()
    for u, v in pairs:
        iv = BruhatInterval(u, v)
        matroids, verdict = flag_of_interval(iv)
        families = _flag_families(iv)
        got = [_is_lpm_family(fam) for fam in families]
        assert got == [is_lpm(m) is not None for m in matroids], iv
        assert verdict == all(got)
        verdicts.update(got)
    assert verdicts == {True, False}


def test_flag_of_interval_size_limit():
    # no member is listed, so [e, w0] is quick far beyond bruhat_interval's bound
    for n in (10, 12):
        matroids, verdict = flag_of_interval(BruhatInterval(identity(n), longest(n)))
        assert verdict and [len(m.bases) for m in matroids[:2]] == [n, n * (n - 1) // 2]
    # at the bound every count still fits its field: [e, s_1] has members e and s_1
    s1 = (2, 1) + tuple(range(3, 17))
    matroids, verdict = flag_of_interval(BruhatInterval(identity(16), s1))
    assert verdict and [len(m.bases) for m in matroids] == [1] * 14 + [2, 1]
    with pytest.raises(DomainError, match="n <= 16"):
        flag_of_interval(BruhatInterval(identity(17), longest(17)))


def test_json_round_trips():
    m = lpm_new(8, (1, 2, 4, 6), (3, 5, 6, 8))
    assert lpm_from_json(lpm_to_json(m)) == m
    flag = lpfm_flag([uniform_lpm(k, 3) for k in (1, 2, 3)])
    doc = {"n": 3, "constituents": [lpm_to_json(m) for m in flag.constituents]}
    assert flag_from_json(doc) == flag


def test_flag_oracle_check(monkeypatch):
    from permsplit import verify

    result = verify.check_flag_oracle(4)
    assert result.passed and result.detail == "exhaustive (213 comparable pairs), 0 mismatches"
    # the oracle is not vacuous: a flag_of_interval that accepts everything fails it
    monkeypatch.setattr(verify, "flag_of_interval", lambda iv: (flag_of_interval(iv)[0], True))
    assert not verify.check_flag_oracle(4).passed


def test_flag_positroid_check(monkeypatch):
    from permsplit import verify

    result = verify.check_flag_positroid(4)
    assert result.passed and result.detail == "12 cells, 48 constituents, 0 not positroids"
    # 1 parallel to 3 and 2 to 4: crossing parallel classes, so no positroid
    bases = frozenset(map(frozenset, ({1, 2}, {1, 4}, {2, 3}, {3, 4})))
    crossing = SetMatroid(n=4, bases=bases, rank=2)
    assert not verify.is_positroid(4, crossing.bases)
    assert verify.is_positroid(4, to_set_matroid(uniform_lpm(2, 4)).bases)

    def fed(iv):
        matroids, verdict = flag_of_interval(iv)
        return (matroids[0], crossing) + matroids[2:], verdict

    monkeypatch.setattr(verify, "flag_of_interval", fed)
    result = verify.check_flag_positroid(4)
    assert not result.passed and "12 not positroids" in result.detail
