"""Lattice path matroids M[U, L], good pairs, quotient chains, and full flags.

An LPM is presented by two Gale-comparable k-subsets of [n]: the basis set is
the Gale interval {B : U <=_G B <=_G L}.  The presentation is unique (U and L
are the coordinatewise min and max of the sorted bases), which is what makes
recognition and target-guided chain search exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations

from .errors import DomainError, GaleOrderError, _json_int
from .matroid import SetMatroid, is_quotient, matroid_from_json
from .perm import MAX_LATTICE_N, BruhatInterval, _prefix_lattice, bruhat_permutation_of_chain


@dataclass(frozen=True)
class LatticePathMatroid:
    n: int
    k: int
    U: tuple[int, ...]
    L: tuple[int, ...]

    def __str__(self):
        if self.n <= 9:
            return "M[%s,%s]" % ("".join(map(str, self.U)), "".join(map(str, self.L)))
        return "M[%s;%s]" % (
            ",".join(map(str, self.U)),
            ",".join(map(str, self.L)),
        )


@dataclass(frozen=True)
class GoodPair:
    """A removable step pair (u at index j of U, l at index i of L); 1-based."""

    u: int
    l: int
    j: int
    i: int


def lpm_new(n: int, upper, lower) -> LatticePathMatroid:
    """Validated LPM; raises GaleOrderError with the first failing index."""
    u = tuple(sorted(int(x) for x in upper))
    l = tuple(sorted(int(x) for x in lower))
    ground = set(range(1, n + 1))
    if not set(u) <= ground or not set(l) <= ground:
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
    """The Gale interval [U, L] inside the k-subsets of [n]."""
    out = []
    for b in combinations(range(1, m.n + 1), m.k):
        if all(u <= x for u, x in zip(m.U, b)) and all(x <= l for x, l in zip(b, m.L)):
            out.append(frozenset(b))
    return frozenset(out)


@lru_cache(maxsize=None)
def to_set_matroid(m: LatticePathMatroid) -> SetMatroid:
    """M[U, L] as a SetMatroid, with no exchange test: a lattice path matroid
    is transversal, hence a matroid (Bonin-de Mier-Noy 2003)."""
    return SetMatroid(m.n, lpm_bases(m), m.k)


def good_pairs(m: LatticePathMatroid) -> tuple[GoodPair, ...]:
    """All pairs (u_j, l_i) with max(0, u_j - l_i) <= j - i, ordered by (j, i)."""
    if m.k < 1:
        raise DomainError("good pairs need rank >= 1")
    out = []
    for j in range(1, m.k + 1):
        for i in range(1, m.k + 1):
            if max(0, m.U[j - 1] - m.L[i - 1]) <= j - i:
                out.append(GoodPair(u=m.U[j - 1], l=m.L[i - 1], j=j, i=i))
    return tuple(out)


def good_pair(m: LatticePathMatroid, u: int, l: int) -> GoodPair:
    """The good pair with values (u, l), or DomainError if it is not good."""
    if u not in m.U or l not in m.L:
        raise DomainError(f"({u},{l}) does not name steps of {m}")
    j = m.U.index(u) + 1
    i = m.L.index(l) + 1
    if max(0, u - l) > j - i:
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
    a quotient of m_hi.  Removals are restricted to U_hi - U_lo and
    L_hi - L_lo (a chain can only delete steps), ties broken by (j, i).
    """
    if m_lo.n != m_hi.n:
        raise DomainError(f"mismatched ground sets: [{m_lo.n}] vs [{m_hi.n}]")
    if not is_quotient(to_set_matroid(m_lo), to_set_matroid(m_hi)):
        return None
    if m_lo == m_hi:
        return []

    u_target, l_target = set(m_lo.U), set(m_lo.L)

    def dfs(cur, steps):
        if cur == m_lo:
            return steps
        if cur.k <= m_lo.k:
            return None
        for pair in good_pairs(cur):
            if pair.u in u_target or pair.l in l_target:
                continue
            nxt = elementary_quotient(cur, pair)
            found = dfs(nxt, steps + [(pair, nxt)])
            if found is not None:
                return found
        return None

    chain = dfs(m_hi, [])
    if chain is None:
        raise RuntimeError(
            f"no elementary chain from {m_hi} to quotient {m_lo}; "
            "this contradicts the decomposition theorem for LPM quotients"
        )
    return chain


def is_lpm(m: SetMatroid):
    """Recognize an LPM presentation under the identity labeling.

    Returns (U, L) when the basis set equals the Gale interval spanned by its
    coordinatewise min and max, else None.
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


@dataclass(frozen=True)
class LPFMFlag:
    """Full flag of LPMs on [n], one constituent per rank 1..n."""

    n: int
    constituents: tuple[LatticePathMatroid, ...]


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
    ranks = [m.k for m in parts]
    if ranks == list(range(1, n)):
        parts.append(uniform_lpm(n, n))
        ranks.append(n)
    if ranks != list(range(1, n + 1)):
        raise DomainError(f"need ranks 1..{n}, got {ranks}")
    for a, b in zip(parts, parts[1:]):
        if not is_quotient(to_set_matroid(a), to_set_matroid(b)):
            raise DomainError(f"{a} is not a quotient of {b}")
    flag = LPFMFlag(n=n, constituents=tuple(parts))
    lpfm_interval(flag)  # raises if the step chains are malformed
    return flag


def lpfm_interval(flag: LPFMFlag) -> BruhatInterval:
    """[tau_L, tau_U]: Bruhat permutations of the L- and U-step chains."""
    l_chain = tuple(frozenset(m.L) for m in flag.constituents)
    u_chain = tuple(frozenset(m.U) for m in flag.constituents)
    for name, ch in (("L", l_chain), ("U", u_chain)):
        for a, b in zip(ch, ch[1:]):
            if not a < b:
                raise DomainError(f"{name}-steps of the flag do not form a chain")
    tau_l = bruhat_permutation_of_chain(l_chain)
    tau_u = bruhat_permutation_of_chain(u_chain)
    return BruhatInterval(tau_l, tau_u)


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
    """is_lpm on a nonempty family of sorted k-tuples, by counting paths."""
    rows = list(zip(*family))
    return len(family) == _gale_count(tuple(map(min, rows)), tuple(map(max, rows)))


@lru_cache(maxsize=None)
def _gale_count(upper: tuple[int, ...], lower: tuple[int, ...]) -> int:
    """Number of increasing tuples b with upper <= b <= lower coordinatewise."""
    ends = [1] * (lower[-1] + 1)  # ends[b]: the tuples so far that end at or below b
    for lo, hi in zip(upper, lower):
        ends = list(accumulate(ends[b - 1] if lo <= b <= hi else 0 for b in range(len(ends))))
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
