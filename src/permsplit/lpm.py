"""Lattice path matroids M[U, L], good pairs, quotient chains, and full flags.

An LPM is presented by two Gale-comparable k-subsets of [n]: the basis set is
the Gale interval {B : U <=_G B <=_G L}.  The presentation is unique (U and L
are the coordinatewise min and max of the sorted bases), which is what makes
recognition exact and lets quotients be read off the step sets.

Theorem.  Let M = M[U, L] have rank k and N = M[U', L'] rank k - d on [n].
N is a quotient of M exactly when U' ⊆ U, L' ⊆ L, and, writing
U - U' = {a_1 < ... < a_d} with a_t the j_t-th element of U and
L - L' = {b_1 < ... < b_d} with b_t the i_t-th element of L, every t has
i_t <= j_t and a_t - j_t <= b_t - i_t.  At d = 1 this is the good-pair
condition max(0, u - l) <= j - i of :func:`good_pairs`.

Proof.  N is a quotient of M exactly when f = r_M - r_N is monotone.  The
i-th element of a basis lies in [u_i, l_i], so r([p]) = |U ∩ [p]| and
r([q..n]) = |L ∩ [q..n]|, attained by U and L; and for p < q,
r([p] ∪ [q..n]) = min(k, |U ∩ [p]| + |L ∩ [q..n]|): for s + t that minimum,
with s and t at most the two counts, the basis (u_1, ..., u_s, l_{s+1}, ...,
l_k), increasing as u_s <= l_s < l_{s+1}, has s elements in [p] and its last
t in [q..n].  Inclusions: U is the set of x at which r([x]) exceeds
r([x - 1]), so a jump of r_N at x forces one of r_M, since f([x - 1]) <=
f([x]); hence U' ⊆ U, and L' ⊆ L by suffixes.  i_t <= j_t: if a_t >= b_t,
then l_{i_t} = b_t <= a_t = u_{j_t} <= l_{j_t}.  Otherwise let X =
[a_t] ∪ [b_t..n]: U has j_t elements in [a_t] and U' has j_t - t; L has
k - i_t + 1 in [b_t..n] and L' has d - t + 1 fewer.  If c = j_t - i_t + 1 were
<= 0, then f(X) = (k + c) - (k - d + c - 1) = d + 1 > f([n]) = d.
a_t - j_t <= b_t - i_t: complements reverse the Gale order, so
M[U, L]* = M[[n] - L, [n] - U], and duality reverses quotients: M* is a
quotient of N*.  Its removed U-steps are L - L', b_t the (b_t - i_t + t)-th
element of [n] - L', and its removed L-steps U - U', a_t the
(a_t - j_t + t)-th element of [n] - U'; the inequality just shown for
(N*, M*) reads a_t - j_t + t <= b_t - i_t + t.  Sufficiency: removing a good
pair (u at j, l at i) leaves Gale-ordered steps, since for i <= s < j the
new s-th steps are u_s <= l_s < l_{s+1}, and gives an elementary quotient
(the rank-one lemma that defines good pairs; ``verify``'s ``good-pairs``
checks it against criterion 1 for every removal at n <= 5).  Remove (a_d, b_d) first and go down to (a_1, b_1): the larger
steps go first, so a_t and b_t keep their positions j_t and i_t, each
removal is a good pair, and N is a quotient of M by transitivity.

>>> is_lpm_quotient(lpm_new(8, (1, 2), (3, 8)), lpm_new(8, (1, 2, 4, 7), (3, 5, 6, 8)))
True
>>> is_lpm_quotient(lpm_new(4, (3, 4), (3, 4)), lpm_new(4, (1, 2), (1, 2)))
False
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, product

from .errors import DomainError, GaleOrderError, _json_int
from .matroid import SetMatroid, matroid_from_json
from .perm import MAX_LATTICE_N, BruhatInterval, _prefix_lattice, bruhat_permutation_of_chain

# largest n that quotient_chain accepts.  Memory, not time, sets it: the chain
# holds its d LPMs of rank up to k, and at k = n/2, d = n/4 `lpm chain -n 2000
# --format json` took 0.5 s and 67 MB on a 2-core machine; both grow as n^2
MAX_CHAIN_N = 2000

# most bases that lpm_bases lists.  Memory and time grow with the count: `lpm bases
# -n 22 1,...,11 12,...,22 --format json` listed 705,432 bases in 17.3 s at 1,061 MB
# on a 2-core machine (13.5 s and 841 MB as a table), so C(24, 12) = 2.7M bases would
# take about a minute and 4 GB
MAX_BASES = 2**21


class LatticePathMatroid(namedtuple("LatticePathMatroid", "n k U L")):
    __slots__ = ()

    def __str__(self):
        if self.n <= 9:
            return "M[%s,%s]" % ("".join(map(str, self.U)), "".join(map(str, self.L)))
        return "M[%s;%s]" % (
            ",".join(map(str, self.U)),
            ",".join(map(str, self.L)),
        )


# A removable step pair (u at index j of U, l at index i of L); 1-based.
GoodPair = namedtuple("GoodPair", "u l j i")


def lpm_new(n: int, upper, lower) -> LatticePathMatroid:
    """Validated LPM; raises GaleOrderError with the first failing index."""
    if n < 0:
        raise DomainError(f"n={n} is negative")
    u, l = (tuple(sorted(map(int, steps))) for steps in (upper, lower))
    if not all(1 <= x <= n for x in u + l):
        raise DomainError(f"steps must lie in [{n}]: U={u}, L={l}")
    if len(set(u)) != len(u) or len(set(l)) != len(l):
        raise DomainError("step sets must have distinct elements")
    if len(u) != len(l):
        raise DomainError(f"U and L must have equal size, got {len(u)} and {len(l)}")
    for idx, (a, b) in enumerate(zip(u, l), start=1):
        if a > b:
            raise GaleOrderError(idx, a, b)
    return LatticePathMatroid(n=n, k=len(u), U=u, L=l)


def uniform_lpm(k: int, n: int) -> LatticePathMatroid:
    return lpm_new(n, range(1, k + 1), range(n - k + 1, n + 1))


@lru_cache(maxsize=None)
def lpm_bases(m: LatticePathMatroid) -> frozenset[frozenset[int]]:
    """The Gale interval [U, L], grown one position at a time as
    :func:`_gale_count` counts it: the i-th element takes each value in
    [u_i, l_i] above the (i-1)-th, and there is always one, as l_{i-1} < l_i.
    An M with more than MAX_BASES bases is refused before any is listed."""
    if _gale_count(m.U, m.L) > MAX_BASES:
        raise DomainError(f"lpm_bases lists at most {MAX_BASES} bases, and {m} has more")
    paths = [(0,)]
    for lo, hi in zip(m.U, m.L):
        paths = [p + (b,) for p in paths for b in range(max(lo, p[-1] + 1), hi + 1)]
    return frozenset(frozenset(p[1:]) for p in paths)


@lru_cache(maxsize=None)
def to_set_matroid(m: LatticePathMatroid) -> SetMatroid:
    """M[U, L] as a SetMatroid, with no exchange test: a lattice path matroid
    is transversal, hence a matroid (Bonin-de Mier-Noy 2003)."""
    return SetMatroid(m.n, lpm_bases(m), m.k)


def _good(u: int, j: int, l: int, i: int) -> bool:
    """Whether removing the j-th step u of U and the i-th step l of L is a good pair."""
    return i <= j and u - j <= l - i


def is_lpm_quotient(m_lo: LatticePathMatroid, m_hi: LatticePathMatroid) -> bool:
    """Whether m_lo is a quotient of m_hi, by the theorem of the module docstring."""
    keep_u, keep_l = set(m_lo.U), set(m_lo.L)
    if not (keep_u <= set(m_hi.U) and keep_l <= set(m_hi.L)):
        return False
    ups = [(a, j) for j, a in enumerate(m_hi.U, 1) if a not in keep_u]
    lows = [(b, i) for i, b in enumerate(m_hi.L, 1) if b not in keep_l]
    return all(_good(a, j, b, i) for (a, j), (b, i) in zip(ups, lows))


def good_pairs(m: LatticePathMatroid) -> tuple[GoodPair, ...]:
    """All pairs (u_j, l_i) with max(0, u_j - l_i) <= j - i, ordered by (j, i)."""
    if m.k < 1:
        raise DomainError("good pairs need rank >= 1")
    pairs = product(enumerate(m.U, 1), enumerate(m.L, 1))
    return tuple(GoodPair(u=u, l=l, j=j, i=i) for (j, u), (i, l) in pairs if _good(u, j, l, i))


def good_pair(m: LatticePathMatroid, u: int, l: int) -> GoodPair:
    """The good pair with values (u, l), or DomainError if it is not good."""
    if u not in m.U or l not in m.L:
        raise DomainError(f"({u},{l}) does not name steps of {m}")
    j, i = m.U.index(u) + 1, m.L.index(l) + 1
    if not _good(u, j, l, i):
        raise DomainError(f"({u},{l}) is not a good pair of {m}")
    return GoodPair(u=u, l=l, j=j, i=i)


def elementary_quotient(m: LatticePathMatroid, pair: GoodPair) -> LatticePathMatroid:
    """M[U - u, L - l] for a good pair; drops the rank by one."""
    pair = good_pair(m, pair.u, pair.l)  # re-derives indices and re-checks
    return lpm_new(m.n, (x for x in m.U if x != pair.u), (x for x in m.L if x != pair.l))


def quotient_chain(m_lo: LatticePathMatroid, m_hi: LatticePathMatroid):
    """Witness chain of elementary quotients from m_hi down to m_lo.

    Returns a list of (GoodPair, LatticePathMatroid) steps whose last entry
    is m_lo, the empty list when the two are equal, or None when m_lo is not
    a quotient of m_hi.  Step t removes (a_t, b_t) of the theorem, which is
    the first good pair in (j, i) order whose removal keeps m_lo a quotient:
    only steps of U_hi - U_lo and L_hi - L_lo can keep it, the least of each
    come first, (a_1, b_1) is good, and removing it moves every later a_t and
    b_t one position down, so the theorem's inequalities still hold.
    """
    if m_lo.n != m_hi.n:
        raise DomainError(f"mismatched ground sets: [{m_lo.n}] vs [{m_hi.n}]")
    if m_hi.n > MAX_CHAIN_N:
        raise DomainError(f"quotient_chain needs n <= {MAX_CHAIN_N}, got n={m_hi.n}")
    if not is_lpm_quotient(m_lo, m_hi):
        return None
    chain, cur = [], m_hi
    for a, b in zip(sorted(set(m_hi.U) - set(m_lo.U)), sorted(set(m_hi.L) - set(m_lo.L))):
        pair = good_pair(cur, a, b)
        cur = elementary_quotient(cur, pair)
        chain.append((pair, cur))
    return chain


def is_lpm(m: SetMatroid):
    """Recognize an LPM presentation under the identity labeling.

    Returns (U, L) when the basis set equals the Gale interval spanned by its
    coordinatewise min and max, else None.  The oracle of :func:`_is_lpm_family`,
    which decides the same by counting lattice paths; ``verify``'s
    ``flag-oracle`` and the tests compare the two.
    """
    blist = [tuple(sorted(b)) for b in m.bases]
    if not blist or m.rank == 0:
        return ((), ()) if m.bases == frozenset([frozenset()]) else None
    u = tuple(min(b[i] for b in blist) for i in range(m.rank))
    l = tuple(max(b[i] for b in blist) for i in range(m.rank))
    hull = lpm_new(m.n, u, l)
    if lpm_bases(hull) == m.bases:
        return u, l
    return None


# --- full flags -------------------------------------------------------------


# Full flag of LPMs on [n], one constituent per rank 1..n.
LPFMFlag = namedtuple("LPFMFlag", "n constituents")


def lpfm_flag(constituents) -> LPFMFlag:
    """Validate ranks, quotient order, and the derived interval.

    A flag of ranks 1..n-1 is completed with the free matroid on top; other
    partial flags are rejected.
    """
    parts = list(constituents)
    if not parts:
        raise DomainError("empty flag")
    n = parts[0].n
    if any(m.n != n for m in parts):
        raise DomainError("constituents live on different ground sets")
    ranks = [m.k for m in parts]  # their count is checked before 1..n is built
    if len(ranks) == n - 1 and ranks == list(range(1, n)):
        parts.append(uniform_lpm(n, n))
    elif len(ranks) != n or ranks != list(range(1, n + 1)):
        raise DomainError(f"need ranks 1..{n}, got {ranks}")
    for a, b in zip(parts, parts[1:]):
        if not is_lpm_quotient(a, b):
            raise DomainError(f"{a} is not a quotient of {b}")
    return LPFMFlag(n=n, constituents=tuple(parts))


def lpfm_interval(flag: LPFMFlag) -> BruhatInterval:
    """[tau_L, tau_U]: Bruhat permutations of the L- and U-step chains (chains,
    as each constituent's steps lie inside the next one's: see the theorem)."""
    chains = ([m.L for m in flag.constituents], [m.U for m in flag.constituents])
    return BruhatInterval(*map(bruhat_permutation_of_chain, chains))


def flag_of_interval(iv: BruhatInterval):
    """Constituent basis families of an interval, with an LPM-flag verdict.

    Constituent i collects, over the interval members z, the positions of the
    i largest values of z.  Returns (matroids, verdict) where the verdict is
    True iff every family is recognized by :func:`is_lpm`.  Neither an exchange
    test (an LPM is a matroid) nor a quotient test is needed: a Bruhat interval
    polytope is a flag matroid polytope (Tsukerman-Williams).

    No member is listed.  Inversion is an automorphism of the Bruhat order, so
    z runs over [u, v] exactly when w = z^-1 runs over [u^-1, v^-1].  The
    positions of the i largest values of z are z^-1({n-i+1, ..., n}), the
    values w takes at its last i positions: [n] minus w's prefix value set of
    size n - i.  So constituent i is the complements of the size-(n - i) sets
    of the prefix-set lattice of [u^-1, v^-1].  For the verdict, let U and L be
    the coordinatewise min and max of the sorted sets of a family F; every set
    of F lies between them, so F is inside the Gale interval [U, L].  An LPM
    M[U', L'] has U' and L' as bases, which bound every basis, so U' = U and
    L' = L: F is an LPM exactly when F is all of [U, L], that is when |F|
    equals the number of lattice paths from U to L.
    """
    families = _flag_families(iv)
    matroids = tuple(
        SetMatroid(iv.n, frozenset(map(frozenset, f)), i) for i, f in enumerate(families, 1)
    )
    return matroids, all(map(_is_lpm_family, families))


def _flag_families(iv: BruhatInterval) -> list[list[tuple[int, ...]]]:
    """Constituent i - 1 -> its bases as sorted tuples; see flag_of_interval."""
    n = iv.n
    if n > MAX_LATTICE_N:
        raise DomainError(f"flag_of_interval needs n <= {MAX_LATTICE_N}, got n={n}")
    inverses = ([p for _, p in sorted(zip(w, range(1, n + 1)))] for w in (iv.lo, iv.hi))
    layers = _prefix_lattice(*inverses)
    return [
        [tuple(p + 1 for p in range(n) if not m >> p & 1) for m in layers[n - i]]
        for i in range(1, n + 1)
    ]


def _is_lpm_family(family: list[tuple[int, ...]]) -> bool:
    """is_lpm on a nonempty family of sorted k-tuples, by counting paths;
    :func:`is_lpm`, which lists the Gale interval, is its oracle."""
    rows = list(zip(*family))
    return len(family) == _gale_count(tuple(map(min, rows)), tuple(map(max, rows)))


@lru_cache(maxsize=None)
def _gale_count(upper: tuple[int, ...], lower: tuple[int, ...]) -> int:
    """Number of increasing tuples b with upper <= b <= lower coordinatewise,
    for increasing upper <= lower, while it is at most MAX_BASES, and else
    some number above MAX_BASES.

    The prefixes (b_1, ..., b_i) are counted by their last value, which
    runs over [u_i, l_i], so time and memory follow those ranges and not
    their values.  Each prefix extends to a tuple, as u_i <= b_i <= l_i <
    l_{i+1}, so once the prefixes, or the values of one position, pass
    MAX_BASES, so do the tuples.  ``verify.lattice_path_count`` is its
    oracle: it counts the same tuples route by route."""
    ends, start = [1], 0  # ends[b - start]: the prefixes so far that end at or below b
    for lo, hi in zip(upper, lower):
        if hi - lo >= MAX_BASES or ends[-1] > MAX_BASES:
            return MAX_BASES + 1
        below = (ends[min(b - 1 - start, len(ends) - 1)] for b in range(lo, hi + 1))
        ends, start = list(accumulate(below)), lo
    return ends[-1]


# --- JSON forms -------------------------------------------------------------


def lpm_to_json(m: LatticePathMatroid) -> dict:
    return {"n": m.n, "U": list(m.U), "L": list(m.L)}


def lpm_from_json(doc: dict) -> LatticePathMatroid:
    try:
        steps = [[_json_int(x) for x in doc[key]] for key in ("U", "L")]
        return lpm_new(_json_int(doc["n"]), *steps)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed LPM document: {exc}") from exc


def _flag_constituents(doc: dict, read) -> list:
    """``read(i, d)`` for each constituent d (i from 1) of a flag document on [n]."""
    try:
        n = _json_int(doc["n"])
        parts = [read(i, d) for i, d in enumerate(doc["constituents"], 1)]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed flag document: {exc}") from exc
    stray = next((m for m in parts if m.n != n), None)
    if stray is not None:
        raise DomainError(f"malformed flag document: a constituent on [{stray.n}], not [{n}]")
    return parts


def flag_from_json(doc: dict) -> LPFMFlag:
    """An LPM flag; every constituent is an LPM document (n, U, L)."""

    def read(i, d):
        if isinstance(d, dict) and "bases" in d:
            raise DomainError(f"malformed flag document: flag interval takes LPM constituents"
                              f" (n, U, L), and constituent {i} is a matroid document")
        return lpm_from_json(d)

    return lpfm_flag(_flag_constituents(doc, read))


def flag_matroids_from_json(doc: dict) -> list[SetMatroid]:
    """A flag's constituents as matroids; each is an LPM or a matroid document."""
    return _flag_constituents(
        doc, lambda _, d: matroid_from_json(d) if "bases" in d else to_set_matroid(lpm_from_json(d))
    )
