"""Computations made apart from permsplit, used to check its outputs.

Nothing here imports permsplit.  The Bruhat order uses the rank-matrix
criterion, where permsplit uses sorted prefixes; split hyperplanes come from
the closed forms of the paper, basis counts from lattice-path routes, and
column matroids from plain Gaussian elimination over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product

# --- Bruhat order ------------------------------------------------------------

_FIELD = 5  # bits per rank-matrix entry: 4 for the value (<= 15), 1 guard bit


class BruhatOracle:
    """Bruhat order on S_n by the rank-matrix criterion (n <= 16).

    u <= v iff u[i, j] <= v[i, j] for all i, j, where
    w[i, j] = #{a <= i : w(a) >= j} (Bjorner and Brenti, Thm 2.1.5).  Each
    rank matrix is packed into one integer with a guard bit per entry, so the
    entrywise comparison is a single subtraction: no entry borrows from the
    next, and a guard bit survives exactly where v's entry is >= u's.
    """

    def __init__(self, n: int):
        self.n = n
        cols = n - 1  # thresholds j = 2..n; rows i = 1..n-1
        self._row_bits = _FIELD * cols
        self._value_rows = {
            value: sum(1 << (_FIELD * c) for c, j in enumerate(range(2, n + 1)) if value >= j)
            for value in range(1, n + 1)
        }
        self._guard = sum(1 << (_FIELD * k + _FIELD - 1) for k in range(cols * cols))
        self._keys: dict[tuple, int] = {}
        self._all: tuple | None = None

    def key(self, w) -> int:
        k = self._keys.get(w)
        if k is None:
            if sorted(w) != list(range(1, self.n + 1)):
                raise ValueError(f"not a permutation of [{self.n}]: {w}")
            row, k = 0, 0
            for i in range(self.n - 1):
                row += self._value_rows[w[i]]
                k |= row << (self._row_bits * i)
            self._keys[w] = k
        return k

    def leq(self, u, v) -> bool:
        g = self._guard
        return ((self.key(v) | g) - self.key(u)) & g == g

    def all_perms(self) -> tuple:
        if self._all is None:
            self._all = tuple(permutations(range(1, self.n + 1)))  # lexicographic
        return self._all

    def interval(self, lo, hi) -> list:
        """Every z with lo <= z <= hi, in lexicographic order."""
        g, klo, khi = self._guard, self.key(lo), self.key(hi) | self._guard
        key = self.key
        return [
            z for z in self.all_perms()
            if ((key(z) | g) - klo) & g == g and (khi - key(z)) & g == g
        ]


@lru_cache(maxsize=None)
def bruhat(n: int) -> BruhatOracle:
    return BruhatOracle(n)


def length(w) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def perm_text(w) -> str:
    return "".join(map(str, w))


def perm_of(text: str) -> tuple:
    return tuple(int(ch) for ch in text)


def dual(w) -> tuple:
    return tuple(len(w) + 1 - x for x in w)


# --- split hyperplanes ---------------------------------------------------------


def normalize(n: int, support, level: int) -> tuple[tuple[int, ...], int]:
    """x_S = level as the representative with the smaller (|S|, sorted S)."""
    s = tuple(sorted(support))
    comp = tuple(i for i in range(1, n + 1) if i not in s)
    if (len(comp), comp) < (len(s), s):
        return comp, n * (n + 1) // 2 - level
    return s, level


def split_hyperplanes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """The paper's three families of good splits, normalized and sorted.

    Low prefix sums x_1 + ... + x_j = j(j+1)/2 + 1 and high prefix sums
    x_1 + ... + x_j = n + ... + (n-j+2) + (n-j) for j <= n-2, and single
    coordinates x_1 = r and x_n = r for 2 <= r <= n-1.
    """
    out = set()
    for j in range(1, n - 1):
        prefix = range(1, j + 1)
        out.add(normalize(n, prefix, j * (j + 1) // 2 + 1))
        out.add(normalize(n, prefix, sum(range(n - j + 2, n + 1)) + n - j))
    for r in range(2, n):
        out.add(normalize(n, [1], r))
        out.add(normalize(n, [n], r))
    return sorted(out, key=lambda h: (len(h[0]), h[0], h[1]))


def level_range(n: int, size: int) -> tuple[int, int]:
    """Least and greatest value of x_S over S_n for |S| = size."""
    return size * (size + 1) // 2, sum(range(n - size + 1, n + 1))


def x_sum(w, support) -> int:
    return sum(w[i - 1] for i in support)


def face_vertices(blocks, n: int) -> list[tuple]:
    """Vertices of the 2-face given by an ordered set partition of positions.

    Block t takes the next len(block) largest values, in every arrangement.
    """
    choices = []
    top = n
    for block in blocks:
        values = range(top - len(block) + 1, top + 1)
        top -= len(block)
        choices.append([tuple(zip(block, arr)) for arr in permutations(values)])
    verts = []
    for pick in product(*choices):
        w = [0] * n
        for pairs in pick:
            for pos, val in pairs:
                w[pos - 1] = val
        verts.append(tuple(w))
    return verts


# --- lattice path matroids -----------------------------------------------------


def lattice_path_count(upper, lower) -> int:
    """Number of increasing sequences b with upper[i] <= b[i] <= lower[i]."""
    ways = {None: 1}
    for lo, hi in zip(upper, lower):
        ways = {
            v: sum(c for prev, c in ways.items() if prev is None or prev < v)
            for v in range(lo, hi + 1)
        }
    return sum(ways.values())


def is_good_pair(upper, lower, u: int, l: int) -> bool:
    """(u_j, l_i) is good iff max(0, u_j - l_i) <= j - i (1-based indices)."""
    j = upper.index(u) + 1
    i = lower.index(l) + 1
    return max(0, u - l) <= j - i


def gale_leq(a, b) -> bool:
    return len(a) == len(b) and all(x <= y for x, y in zip(sorted(a), sorted(b)))


# --- matroids of rational matrices ------------------------------------------------


def rank(rows) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col] / mat[r][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def column_bases(rows) -> list[list[int]]:
    """Bases of the column matroid, as sorted 1-based column lists."""
    ncols = len(rows[0])
    r = rank(rows)
    return [
        [c + 1 for c in cols]
        for cols in combinations(range(ncols), r)
        if rank([[row[c] for c in cols] for row in rows]) == r
    ]
