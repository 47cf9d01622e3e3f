"""Self-contained verification checks with independent oracles.

Each check cross-validates a library operation against a second computation
route: cover-graph reachability for the Bruhat order, its intervals and
their flags, the Grassmann-necklace test for the flags' positroids, dynamic
programming for lattice-path counts, the three quotient criteria against each
other on every LPM pair, and exhaustive flag enumeration for the
interval/polytope correspondence.
The CLI ``verify`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from operator import ge, le

from .errors import DomainError
from .lpm import (
    LPFMFlag,
    elementary_quotient,
    flag_of_interval,
    good_pairs,
    is_lpm,
    lpfm_interval,
    lpm_bases,
    lpm_new,
    to_set_matroid,
    uniform_lpm,
)
from .matroid import SetMatroid, exchange_violation, is_quotient
from .perm import (
    BruhatInterval,
    bruhat_covers,
    bruhat_interval,
    bruhat_leq,
    chain_of_permutation,
    dual_interval,
    identity,
    length,
    longest,
    perm,
)
from .polytope import (
    LinearConstraint,
    enumerate_vertices,
    flag_polytope_vertices,
    is_bip,
    is_permutation_point,
    permutahedron_facets,
    permutahedron_vertices,
)
from .splits import (
    SplitHyperplane,
    _canonical_supports,
    _families,
    _support_bounds,
    _verdict,
    check_split,
    dual_hyperplane,
    exhaustive_scan,
    predicted_cells,
    theorem_hyperplanes,
)

# largest n that run_checks accepts: n=5 takes seconds, while at n=6 the
# exact-kernel check alone enumerates C(62, 5) = 6.47M facet systems
MAX_VERIFY_N = 5

# pairs, flags or basis counts drawn by the checks that sample
_SAMPLES = 200


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# --- oracles -----------------------------------------------------------------


def cover_reachability(n: int) -> dict:
    """reach[p] = set of q with p <= q, computed only from the cover digraph."""
    perms = sorted(permutahedron_vertices(n), key=length, reverse=True)
    reach = {}
    for p in perms:
        acc = {p}
        for q in bruhat_covers(p):
            acc |= reach[q]
        reach[p] = acc
    return reach

def lattice_path_count(upper, lower, n: int) -> int:
    """Number of sorted k-subsets between the step bounds, by route counting.

    Stage i admits values in [u_i, l_i]; strict increase is enforced by only
    extending from strictly smaller previous values.
    """
    u, l = sorted(upper), sorted(lower)
    if not u:
        return 1
    prev = {v: 1 for v in range(u[0], l[0] + 1)}
    for i in range(1, len(u)):
        cur = {}
        for v in range(u[i], l[i] + 1):
            cur[v] = sum(c for w, c in prev.items() if w < v)
        prev = cur
    return sum(prev.values())


def all_lpms(n: int, min_rank: int = 0):
    """Every LPM on [n]: all Gale-comparable (U, L) pairs, every rank."""
    out = []
    for k in range(min_rank, n + 1):
        subs = list(combinations(range(1, n + 1), k))
        for u in subs:
            for l in subs:
                if all(a <= b for a, b in zip(u, l)):
                    out.append(lpm_new(n, u, l))
    return out


def all_lpfm_flags(n: int) -> list[LPFMFlag]:
    """Every full flag of LPMs, grown downward from the free matroid."""
    flags = []

    def descend(stack):
        cur = stack[-1]
        if cur.k == 1:
            flags.append(LPFMFlag(n=n, constituents=tuple(reversed(stack))))
            return
        for pair in good_pairs(cur):
            descend(stack + [elementary_quotient(cur, pair)])

    descend([uniform_lpm(n, n)])
    return flags


def schubert_flags(n: int) -> list[LPFMFlag]:
    """Every full flag of Schubert LPMs, one per chain of U-step sets."""
    flags = []
    for order in permutations(range(1, n + 1)):
        steps = []
        acc = []
        for k, val in enumerate(order, start=1):
            acc.append(val)
            steps.append(lpm_new(n, sorted(acc), range(n - k + 1, n + 1)))
        flags.append(LPFMFlag(n=n, constituents=tuple(steps)))
    return flags


def sample_lpfm_flags(n: int, count: int, rng: random.Random) -> list[LPFMFlag]:
    """Distinct random full flags, grown by random elementary quotients."""
    seen = {}
    attempts = 0
    while len(seen) < count and attempts < 50 * count:
        attempts += 1
        stack = [uniform_lpm(n, n)]
        while stack[-1].k > 1:
            stack.append(elementary_quotient(stack[-1], rng.choice(good_pairs(stack[-1]))))
        flag = LPFMFlag(n=n, constituents=tuple(reversed(stack)))
        seen[flag] = True
    return list(seen)


# --- checks ------------------------------------------------------------------


def check_bruhat_oracle(n: int) -> CheckResult:
    """Subset-criterion order must equal cover-digraph reachability."""
    reach = cover_reachability(n)
    perms = permutahedron_vertices(n)
    bad = 0
    for u in perms:
        for v in perms:
            if bruhat_leq(u, v) != (v in reach[u]):
                bad += 1
    return _result(
        f"bruhat-oracle[n={n}]",
        bad == 0,
        f"{len(perms) ** 2} ordered pairs compared, {bad} disagreements",
    )


def _comparable_pairs(reach: dict, n: int, seed: int):
    """Every comparable pair for n <= 4, else _SAMPLES seeded ones; and a label."""
    pairs = [(u, v) for u in sorted(reach) for v in sorted(reach[u])]
    if n <= 4:
        return pairs, f"exhaustive ({len(pairs)} comparable pairs)"
    return random.Random(seed).sample(pairs, _SAMPLES), f"{_SAMPLES} sampled comparable pairs"


def check_interval_oracle(n: int, seed: int = 0) -> CheckResult:
    """Each interval must equal the one read off cover-digraph reachability."""
    reach = cover_reachability(n)
    pairs, mode = _comparable_pairs(reach, n, seed)
    bad = sum(
        bruhat_interval(u, v) != tuple(sorted(z for z in reach[u] if v in reach[z]))
        for u, v in pairs
    )
    return _result(f"interval-oracle[n={n}]", bad == 0, f"{mode}, {bad} mismatches")


def check_flag_oracle(n: int, seed: int = 0) -> CheckResult:
    """flag_of_interval must match the flag of the cover-digraph members.

    The oracle's families are the members' chains of top-value position
    sets, and its verdict applies the exchange and quotient tests that
    flag_of_interval leaves out.
    """
    reach = cover_reachability(n)
    pairs, mode = _comparable_pairs(reach, n, seed)
    bad = 0
    for u, v in pairs:
        members = [z for z in reach[u] if v in reach[z]]
        families = [frozenset(f) for f in zip(*map(chain_of_permutation, members))]
        oracle = [SetMatroid(n=n, bases=f, rank=i) for i, f in enumerate(families, start=1)]
        verdict = (
            all(exchange_violation(f) is None for f in families)
            and all(is_lpm(m) is not None for m in oracle)
            and all(is_quotient(a, b) for a, b in zip(oracle, oracle[1:]))
        )
        matroids, got = flag_of_interval(BruhatInterval(u, v))
        bad += (list(matroids), got) != (oracle, verdict)
    return _result(f"flag-oracle[n={n}]", bad == 0, f"{mode}, {bad} mismatches")


def is_positroid(n: int, bases) -> bool:
    """Oh's test, with no use of is_lpm: a positroid's bases are exactly the
    k-sets that lie above every set of its Grassmann necklace, each in its
    cyclically shifted Gale order (Postnikov 2006; Oh 2011).

    Necklace set i is the lexicographically least basis in the order
    i < i+1 < ... < n < 1 < ... < i-1, in which ``shifted`` lists a set.
    """
    family = {frozenset(b) for b in bases}
    k = len(next(iter(family)))

    def shifted(b, i):
        return sorted((x - i) % n for x in b)

    necklace = [min(shifted(b, i) for b in family) for i in range(1, n + 1)]
    envelope = {
        frozenset(c)
        for c in combinations(range(1, n + 1), k)
        if all(
            all(a <= b for a, b in zip(low, shifted(c, i)))
            for i, low in enumerate(necklace, start=1)
        )
    }
    return envelope == family


def check_flag_positroid(n: int) -> CheckResult:
    """Every constituent of both cells of every good split is a positroid,
    as the flags of the totally nonnegative flag variety are."""
    cells = [cell for h in theorem_hyperplanes(n) for cell in check_split(h).cells]
    bad = [
        f"{m.rank}-constituent of [{''.join(map(str, cell.lo))}, {''.join(map(str, cell.hi))}]"
        for cell in cells
        for m in flag_of_interval(cell)[0]
        if not is_positroid(n, m.bases)
    ]
    return _result(
        f"flag-positroid[n={n}]",
        not bad,
        f"{len(cells)} cells, {n * len(cells)} constituents, {len(bad)} not positroids"
        + (f" (first: {bad[0]})" if bad else ""),
    )


def check_interval_polytope_match(n: int, seed: int = 0) -> CheckResult:
    """Flag polytope vertices must equal the point set of the flag interval."""
    if n <= 4:
        flags = {f: True for f in all_lpfm_flags(n)}
        for f in schubert_flags(n):
            flags.setdefault(f, True)
        flags = list(flags)
        mode = f"exhaustive ({len(flags)} flags)"
    else:
        flags = sample_lpfm_flags(n, _SAMPLES, random.Random(seed))
        mode = f"{len(flags)} sampled flags"
    bad = 0
    for flag in flags:
        interval = lpfm_interval(flag)
        expected = frozenset(tuple(z) for z in interval.members())
        actual = flag_polytope_vertices([to_set_matroid(m) for m in flag.constituents])
        if actual != expected:
            bad += 1
    return _result(
        f"interval-polytope-match[n={n}]", bad == 0, f"{mode}, {bad} mismatches"
    )


def check_theorem_hyperplanes(n: int) -> CheckResult:
    """Every listed hyperplane is a good split whose cells are LPM flags."""
    hyps = theorem_hyperplanes(n)
    problems = []
    for h in hyps:
        report = check_split(h)
        if report.verdict != "good-split":
            problems.append(f"{h}: verdict {report.verdict}")
            continue
        if report.lpfm != (True, True):
            problems.append(f"{h}: cells are not LPM flags")
    detail = f"{len(hyps)} hyperplanes"
    if n == 4:
        expected = {
            SplitHyperplane(n=4, support=frozenset({1, 2}), level=4),
            SplitHyperplane(n=4, support=frozenset({1, 2}), level=6),
            SplitHyperplane(n=4, support=frozenset({1}), level=2),
            SplitHyperplane(n=4, support=frozenset({1}), level=3),
            SplitHyperplane(n=4, support=frozenset({4}), level=2),
            SplitHyperplane(n=4, support=frozenset({4}), level=3),
        }
        if set(hyps) != expected:
            problems.append("n=4 list differs from the six expected hyperplanes")
    return _result(
        f"theorem-hyperplanes[n={n}]",
        not problems,
        detail if not problems else "; ".join(problems),
    )


def check_classification(n: int) -> CheckResult:
    """The exhaustive scan finds exactly the listed hyperplanes, and at every
    canonical support and level strictly inside its range the verdict is
    good-split exactly when both closed sides are Bruhat intervals, which
    are then the closed-form cells, the identity's side first."""
    scanned = exhaustive_scan(n)
    listed = theorem_hyperplanes(n)
    problems = []
    if set(scanned) != set(listed):
        problems.append(
            f"scan found {len(scanned)} hyperplanes, expected {len(listed)}"
        )
    perms = permutahedron_vertices(n)
    levels = 0
    for s in _canonical_supports(n):
        values = [sum(p[i - 1] for i in s) for p in perms]
        lo, hi = _support_bounds(n, len(s))
        for t in range(lo + 1, hi):
            levels += 1
            sides = [
                is_bip([p for p, v in zip(perms, values) if side(v, t)])
                for side in (le, ge)
            ]
            good = None not in sides
            h = SplitHyperplane(n=n, support=frozenset(s), level=t)
            if good != (_verdict(n, s, t) == "good-split"):
                problems.append(f"{h}: verdict disagrees with the sides")
            elif good:
                cells = tuple(sides if sides[0].lo == identity(n) else reversed(sides))
                if cells != predicted_cells(h):
                    problems.append(f"{h}: cells differ from the closed form")
    if n == 4:
        square = check_split(SplitHyperplane(n=4, support=frozenset({1, 2}), level=5))
        hexa = check_split(SplitHyperplane(n=4, support=frozenset({3}), level=3))
        if square.verdict != "bad-square":
            problems.append(f"x1+x2=5 verdict {square.verdict}")
        if hexa.verdict != "bad-hexagon":
            problems.append(f"x3=3 verdict {hexa.verdict}")
    return _result(
        f"split-classification[n={n}]",
        not problems,
        f"{len(scanned)} good splits, {levels} levels match the interval test"
        if not problems
        else "; ".join(problems),
    )


def check_duality(n: int) -> CheckResult:
    """Dual hyperplanes: involution, family exchange, and dual cells."""
    problems = []
    good = theorem_hyperplanes(n)
    for h in good:
        hd = dual_hyperplane(h)
        if dual_hyperplane(hd) != h:
            problems.append(f"{h}: dual is not an involution")
        cells = check_split(h).cells
        dcells = check_split(hd).cells
        if dcells != (dual_interval(cells[1]), dual_interval(cells[0])):
            problems.append(f"{h}: dual cells are not the dualized cells")
    # single coordinates complement the level; prefix families swap low <-> high
    for r in range(2, n):
        h = SplitHyperplane(n=n, support=frozenset({1}), level=r)
        if dual_hyperplane(h) != SplitHyperplane(
            n=n, support=frozenset({1}), level=n - r + 1
        ):
            problems.append(f"x1={r}: dual level is not {n - r + 1}")
    lows = {h for h in good if _families(n)[h][0] == "prefix-low"}
    highs = {h for h in good if _families(n)[h][0] == "prefix-high"}
    if {dual_hyperplane(h) for h in lows} != highs:
        problems.append("duals of low prefix sums are not the high prefix sums")
    # fixed six-element examples
    a = perm((3, 1, 6, 5, 4, 2))
    iv = dual_interval(BruhatInterval(identity(6), a))
    if iv.lo != perm((4, 6, 1, 2, 3, 5)) or iv.hi != longest(6):
        problems.append("[e,316542]* != [461235, w]")
    b = perm((1, 3, 2, 4, 5, 6))
    iv2 = dual_interval(BruhatInterval(b, longest(6)))
    if iv2.lo != identity(6) or iv2.hi != perm((6, 4, 5, 3, 2, 1)):
        problems.append("[132456,w]* != [e, 645321]")
    return _result(
        f"duality[n={n}]",
        not problems,
        f"{len(good)} good splits dualized" if not problems else "; ".join(problems),
    )


def check_l4_poset() -> CheckResult:
    """Reproduce the refinement poset of the 4-permutahedron."""
    from .subdivision import (
        SubdivisionRejection,
        build_poset,
        subdivision_from_hyperplanes,
    )

    problems = []
    poset = build_poset(4)
    if len(poset.minimal_indices()) != 6:
        problems.append(f"{len(poset.minimal_indices())} minimal elements, expected 6")
    if len(poset.maximal_indices()) != 2:
        problems.append(
            f"{len(poset.maximal_indices())} maximal elements, expected 2 "
            "(stacks of parallel hyperplanes such as x1=2 with x1=3 are "
            "genuinely maximal: every extension creates new vertices; "
            "known discrepancy, documented in the README)"
        )
    trio = [
        SplitHyperplane(n=4, support=frozenset({1, 2}), level=6),
        SplitHyperplane(n=4, support=frozenset({1}), level=2),
        SplitHyperplane(n=4, support=frozenset({4}), level=3),
    ]
    sub = subdivision_from_hyperplanes(4, trio)
    expected_cells = {
        ((1, 2, 3, 4), (2, 4, 1, 3)),
        ((1, 2, 4, 3), (2, 4, 3, 1)),
        ((2, 1, 3, 4), (4, 2, 1, 3)),
        ((2, 1, 4, 3), (4, 2, 3, 1)),
        ((2, 4, 1, 3), (4, 3, 2, 1)),
    }
    if isinstance(sub, SubdivisionRejection):
        problems.append(f"three-hyperplane refinement rejected: {sub.reason}")
    else:
        got = {(c.interval.lo, c.interval.hi) for c in sub.cells}
        if got != expected_cells:
            problems.append(f"five-cell refinement cells differ: {sorted(got)}")
    pair = [
        SplitHyperplane(n=4, support=frozenset({1, 2}), level=6),
        SplitHyperplane(n=4, support=frozenset({4}), level=2),
    ]
    rej = subdivision_from_hyperplanes(4, pair)
    if not isinstance(rej, SubdivisionRejection) or rej.reason != "new-vertex":
        problems.append("x1+x2=6 with x4=2 was not rejected for a new vertex")
    return _result(
        "l4-poset",
        not problems,
        f"{len(poset.elements)} elements, 6 minimal, 2 maximal"
        if not problems
        else "; ".join(problems),
    )


def check_quotient_criteria(n: int) -> CheckResult:
    """The three quotient criteria agree, exhaustively on LPMs."""
    lpms = [to_set_matroid(m) for m in all_lpms(n)]
    disagreements = sum(
        len({is_quotient(m, big, c) for c in (1, 2, 3)}) != 1 for m in lpms for big in lpms
    )
    return _result(
        f"quotient-criteria[n={n}]",
        disagreements == 0,
        f"{len(lpms) ** 2} pairs, {disagreements} disagreements",
    )


def check_good_pairs(n: int) -> CheckResult:
    """(u, l) is good exactly when removing it yields a quotient."""
    bad = 0
    checked = 0
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
                checked += 1
                if is_good != is_quot:
                    bad += 1
    return _result(
        f"good-pairs[n={n}]", bad == 0, f"{checked} removals checked, {bad} mismatches"
    )


def check_exact_kernel(n: int, seed: int = 0) -> CheckResult:
    """Vertex enumeration and basis counting against independent oracles."""
    problems = []
    enum = enumerate_vertices(permutahedron_facets(n), n)
    pts = set(enum.points)
    expected = {tuple(p) for p in permutahedron_vertices(n)}
    if pts != expected:
        problems.append(f"facet system gave {len(pts)} vertices, expected {len(expected)}")
    if n == 4:
        cut = list(permutahedron_facets(4)) + [
            LinearConstraint(frozenset({1, 2}), "<=", Fraction(5))
        ]
        sliced = enumerate_vertices(cut, 4)
        if not any(not is_permutation_point(p) for p in sliced.points):
            problems.append(
                "cut at x1+x2<=5 has only permutation vertices (edges change "
                "x_S by at most 1, so an integer level never crosses an edge "
                "strictly; a fractional vertex needs a non-integer level; "
                "known discrepancy, documented in the README)"
            )
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(_SAMPLES):
        size = rng.randint(2, 9)
        k = rng.randint(1, size)
        a = sorted(rng.sample(range(1, size + 1), k))
        b = sorted(rng.sample(range(1, size + 1), k))
        u = tuple(min(x, y) for x, y in zip(a, b))
        l = tuple(max(x, y) for x, y in zip(a, b))
        m = lpm_new(size, u, l)
        if len(lpm_bases(m)) != lattice_path_count(u, l, size):
            mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} basis counts disagree with route counting")
    return _result(
        f"exact-kernel[n={n}]",
        not problems,
        f"{len(pts)} vertices, {_SAMPLES} basis counts"
        if not problems
        else "; ".join(problems),
    )


def run_checks(n: int, seed: int = 0) -> list[CheckResult]:
    """Every check applicable at ground-set size n."""
    if n > MAX_VERIFY_N:
        raise DomainError(f"verify needs n <= {MAX_VERIFY_N}, got n={n}")
    results = [
        check_bruhat_oracle(n),
        check_interval_oracle(n, seed=seed),
        check_flag_oracle(n, seed=seed),
        check_flag_positroid(n),
        check_interval_polytope_match(n, seed=seed),
        check_theorem_hyperplanes(n),
        check_classification(n),
        check_duality(n),
        check_quotient_criteria(n),
        check_good_pairs(n),
        check_exact_kernel(n, seed=seed),
    ]
    if n == 4:
        results.append(check_l4_poset())
    return results
