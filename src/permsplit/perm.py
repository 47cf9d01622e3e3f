"""Permutations of [n] in one-line notation, Bruhat order, and duality.

A permutation is a tuple ``(u(1), ..., u(n))`` of the values 1..n; read as
coordinates, the same tuple is the corresponding lattice point of R^n.
Everything here is a pure function over immutable tuples.

>>> length((5, 1, 4, 2, 3))
6
>>> dual_permutation((3, 1, 6, 5, 4, 2))
(4, 6, 1, 2, 3, 5)
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate

from .errors import DomainError

Perm = tuple[int, ...]

# a full chain of subsets B_1 c B_2 c ... c B_n = [n]
Chain = tuple[frozenset[int], ...]

# largest n that bruhat_interval accepts: at n=9, [e, w0] alone has 362,880 members
MAX_INTERVAL_N = 8

# largest n that flag_of_interval accepts: its _prefix_lattice pass on [e, w0]
# visits all 2^n sets, about a second at n=16 and twice that per further step
MAX_LATTICE_N = 16


@lru_cache(maxsize=None)
def _packing(n: int) -> tuple[int, int, int]:
    """``(ones, w, guard)``: the weight of value x, ``ones >> w * (n + 1 - x)``,
    counts x once per threshold t = 2..x, one w-bit field per t holding a count
    (at most n - 1) and a guard bit; c <= d in every field iff
    ``(d | guard) - c & guard == guard``.  ``ones`` has a 1 in each of n
    fields, and each weight is shifted out of it when read: the cache holds
    O(n log n) bits, where a table of the n weights would hold O(n^2 log n)."""
    w = (n - 1).bit_length() + 1
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
    return ones, w, ones >> 1


def perm(values) -> Perm:
    """Validate and normalize one-line notation (a bijection of [n])."""
    p = tuple(int(v) for v in values)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise DomainError(f"not a permutation of [{len(p)}]: {p}")
    return p


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def length(p: Perm) -> int:
    """Coxeter length = inversion count.

    >>> length((1, 2, 3, 4))
    0
    >>> length((4, 3, 2, 1))
    6
    """
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def bruhat_covers(p: Perm) -> frozenset[Perm]:
    """All covers of p: swap any two positions, keep results of length+1.

    >>> sorted(bruhat_covers((1, 3, 2)))
    [(2, 3, 1), (3, 1, 2)]
    """
    n = len(p)
    lp = length(p)
    out = set()
    for i in range(n):
        for j in range(i + 1, n):
            q = list(p)
            q[i], q[j] = q[j], q[i]
            q = tuple(q)
            if length(q) == lp + 1:
                out.add(q)
    return frozenset(out)


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Strong Bruhat order by the tableau criterion: u <= v iff for every k
    and threshold t, no more of u(1..k) than of v(1..k) are >= t; one borrow
    test per k on the counts packed by :func:`_packing`, so O(n) additions and
    shifts of integers of O(n log n) bits each.

    >>> bruhat_leq((1, 3, 2, 4), (3, 4, 1, 2))
    True
    >>> bruhat_leq((3, 1, 4, 2), (2, 4, 1, 3)), bruhat_leq((2, 4, 1, 3), (3, 1, 4, 2))
    (False, False)
    >>> w0 = longest(20)  # six-bit fields from n=17 on
    >>> bruhat_leq(identity(20), w0), bruhat_leq(w0, identity(20))
    (True, False)
    """
    n = len(u)
    if len(v) != n:
        raise DomainError(f"mismatched sizes: {n} vs {len(v)}")
    ones, w, guard = _packing(n)
    top = w * (n + 1)
    cu = cv = 0
    for x, y in zip(u, v):
        cu, cv = cu + (ones >> top - w * x), cv + (ones >> top - w * y)
        if (cv | guard) - cu & guard != guard:
            return False
    return True


def _prefix_lattice(u: Perm, v: Perm) -> list[dict[int, list]]:
    """``layers[k]``: each size-k prefix value set of a member of [u, v] (bit
    x - 1 for value x) -> its steps ``((x,), superset)``, in increasing x.

    z is a member iff each prefix value set of z passes bruhat_leq's packed
    test against u and v, so the members are the chains of such sets from the
    empty set to [n].  A set is on one iff it is live backward from [n] and
    reachable forward from the empty set: one O(2^n n) pass each way.
    """
    n = len(u)
    if len(v) != n:
        raise DomainError(f"mismatched sizes: {n} vs {len(v)}")
    ones, w, guard = _packing(n)
    weight = [ones >> w * (n + 1 - x) for x in range(n + 1)]
    low = list(accumulate((weight[x] for x in u), initial=0))
    high = [c | guard for c in accumulate((weight[x] for x in v), initial=0)]
    full = (1 << n) - 1
    layer = {full: low[n]}  # live sets of one size -> packed counts
    steps = {full: []}  # live set -> its steps to live sets one value larger
    for k in range(n - 1, -1, -1):
        below, lo, hi = {}, low[k], high[k]
        for x in range(1, n + 1):
            bit, wx, value = 1 << x - 1, weight[x], (x,)
            for m, c in layer.items():
                if m & bit:
                    a, ca = m ^ bit, c - wx
                    if (ca | guard) - lo & guard == guard and hi - ca & guard == guard:
                        below[a] = ca
                        steps.setdefault(a, []).append((value, m))
        layer = below
    if not layer:  # the empty set is live iff u itself is a member
        raise DomainError(f"{u} is not <= {v} in Bruhat order")
    layers = [{0: steps[0]}]
    for _ in range(n):
        layers.append({m: steps[m] for out in layers[-1].values() for _, m in out})
    return layers


def _join(u: Perm, v: Perm, atoms) -> list:
    """Each z in [u, v], in lexicographic order, as ``atoms[z(1)] + ... + atoms[z(n)]``.

    Joins halves over the members' prefix value sets (:func:`_prefix_lattice`),
    each built once per set, in O(2^n n + n |[u, v]|) rather than n! steps.
    """
    n = len(u)
    if n > MAX_INTERVAL_N:
        raise DomainError(f"bruhat_interval needs n <= {MAX_INTERVAL_N}, got n={n}")
    layers = _prefix_lattice(u, v)
    empty = atoms[0][:0]
    tails = {(1 << n) - 1: [empty]}  # set of size >= n // 2 -> its completions, sorted
    for layer in reversed(layers[n // 2 : n]):
        for a, out in layer.items():
            tails[a] = [atoms[x] + t for (x,), m in out for t in tails[m]]
    heads = [(empty, 0)]  # first halves of the members, with their value sets
    for layer in layers[: n // 2]:
        heads = [(p + atoms[x], m) for p, a in heads for (x,), m in layer[a]]
    return [p + t for p, m in heads for t in tails[m]]


_SINGLETONS = tuple((x,) for x in range(MAX_INTERVAL_N + 1))


def bruhat_interval(u: Perm, v: Perm) -> tuple[Perm, ...]:
    """All z with u <= z <= v, sorted lexicographically."""
    return tuple(_join(u, v, _SINGLETONS))


def interval_texts(u: Perm, v: Perm) -> list[str]:
    """:func:`perm_to_str` of each member of [u, v], in the same order, joined
    as text: every value is one digit, since n <= MAX_INTERVAL_N < 10."""
    return _join(u, v, "0123456789")


def dual_permutation(t: Perm) -> Perm:
    """Entrywise complement j -> n - t(j) + 1; an order-reversing involution."""
    n = len(t)
    return tuple(n - x + 1 for x in t)


class BruhatInterval(namedtuple("BruhatInterval", "lo hi")):
    __slots__ = ()

    def __new__(cls, lo: Perm, hi: Perm):
        if not bruhat_leq(lo, hi):
            raise DomainError(f"{lo} is not <= {hi} in Bruhat order")
        return tuple.__new__(cls, (lo, hi))

    @property
    def n(self) -> int:
        return len(self.lo)

    def members(self) -> tuple[Perm, ...]:
        return bruhat_interval(self.lo, self.hi)


def _proved_interval(lo: Perm, hi: Perm) -> BruhatInterval:
    """[lo, hi] for a pair proved comparable by its caller, without the
    ``bruhat_leq`` check of the constructor."""
    return tuple.__new__(BruhatInterval, (lo, hi))


def dual_interval(iv: BruhatInterval) -> BruhatInterval:
    """[lo, hi] -> [hi*, lo*]; an involution, and hi* <= lo* as duality
    reverses the order."""
    return _proved_interval(dual_permutation(iv.hi), dual_permutation(iv.lo))


def _validate_chain(chain: Chain) -> tuple[frozenset[int], ...]:
    sets = tuple(frozenset(b) for b in chain)
    n = len(sets)
    if n == 0:
        raise DomainError("empty chain")
    if sets[-1] != frozenset(range(1, n + 1)):
        raise DomainError(f"chain must end in [{n}], got {sorted(sets[-1])}")
    for i, b in enumerate(sets):
        if len(b) != i + 1:
            raise DomainError(f"chain step {i + 1} has size {len(b)}, expected {i + 1}")
        if i and not sets[i - 1] < b:
            raise DomainError(f"chain step {i + 1} does not contain step {i}")
    return sets


def bruhat_permutation_of_chain(chain: Chain) -> Perm:
    """Permutation whose point form is the indicator-vector sum of the chain.

    Position i receives coordinate n - k + 1 where k is the first chain step
    containing i.

    >>> bruhat_permutation_of_chain(({1}, {1, 3}, {1, 3, 5}, {1, 3, 4, 5}, {1, 2, 3, 4, 5}))
    (5, 1, 4, 2, 3)
    """
    sets = _validate_chain(chain)
    n = len(sets)
    coord = [0] * n
    for k, b in enumerate(sets):
        for i in b:
            if coord[i - 1] == 0:
                coord[i - 1] = n - k
    return perm(coord)


def chain_of_permutation(t: Perm) -> Chain:
    """Inverse of :func:`bruhat_permutation_of_chain`.

    Step i collects the positions holding the i largest values of t.
    """
    n = len(t)
    return tuple(
        frozenset(p + 1 for p in range(n) if t[p] >= n - i + 1) for i in range(1, n + 1)
    )


def perm_to_str(p: Perm) -> str:
    """Digit string for n <= 9, comma-separated values otherwise."""
    return ("," if len(p) > 9 else "").join(map(str, p))


def _int_list(s: str) -> list[int]:
    """The values of "3142" or "10,3,1,2"; ValueError on any other text."""
    if "," not in s and not s.isdigit():
        raise ValueError(s)
    return [int(t) for t in (s.split(",") if "," in s else s)]


def perm_from_str(s: str) -> Perm:
    s = s.strip()
    try:
        values = _int_list(s)
    except ValueError:
        raise DomainError(f"malformed permutation text: {s!r}") from None
    return perm(values)
