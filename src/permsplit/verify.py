"""Self-contained verification checks with independent oracles.

Each check cross-validates a library operation against a second computation
route: cover-graph reachability for the Bruhat order, its intervals and
their flags, the Grassmann-necklace test for the flags' positroids, dynamic
programming for lattice-path counts, the three quotient criteria against each
other and against the step-set rule on every LPM pair, and exhaustive flag
enumeration for the interval/polytope correspondence.
The CLI ``verify`` subcommand and the acceptance tests both run these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from operator import ge, le

from .errors import DomainError
from .lpm import (
    LPFMFlag,
    elementary_quotient,
    flag_of_interval,
    good_pairs,
    is_lpm,
    is_lpm_quotient,
    lpfm_interval,
    lpm_bases,
    lpm_new,
    quotient_chain,
    to_set_matroid,
    uniform_lpm,
)
from .matroid import SetMatroid, circuits, exchange_violation, flats, is_quotient
from .perm import (
    BruhatInterval,
    bruhat_covers,
    bruhat_interval,
    bruhat_leq,
    chain_of_permutation,
    dual_interval,
    identity,
    interval_texts,
    length,
    longest,
    perm,
    perm_to_str,
)
from .polytope import (
    LinearConstraint,
    enumerate_vertices,
    faces_2d,
    flag_polytope_vertices,
    is_bip,
    is_permutation_point,
    permutahedron_facets,
    permutahedron_vertices,
)
from .splits import (
    SplitHyperplane,
    _canonical_supports,
    _label,
    _support_bounds,
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
    extending from strictly smaller previous values.  The oracle of
    ``lpm._gale_count``, which counts the same Gale interval by prefix sums.
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


def all_lpms(n: int):
    """Every LPM on [n]: all Gale-comparable (U, L) pairs, every rank."""
    out = []
    for k in range(n + 1):
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


def _sampled(items: list, n: int, seed: int, noun: str):
    """(label, items): every item for n <= 4, else _SAMPLES seeded ones."""
    if n <= 4:
        return f"exhaustive ({len(items)} {noun})", items
    return f"{_SAMPLES} sampled {noun}", random.Random(seed).sample(items, _SAMPLES)


def _interval_table(n: int, seed: int):
    """(label, [(u, v, members)]): the comparable pairs that _sampled draws, each
    with its interval's sorted members by cover-digraph reachability."""
    reach = cover_reachability(n)
    label, pairs = _sampled([(u, v) for u in sorted(reach) for v in sorted(reach[u])],
                            n, seed, "comparable pairs")
    return label, [(u, v, tuple(sorted(z for z in reach[u] if v in reach[z]))) for u, v in pairs]


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
    return CheckResult(
        f"bruhat-oracle[n={n}]",
        bad == 0,
        f"{len(perms) ** 2} ordered pairs compared, {bad} disagreements",
    )


def check_interval_oracle(n: int, seed: int = 0) -> CheckResult:
    """Each interval, as tuples and as texts, must equal cover-digraph reachability's."""
    mode, table = _interval_table(n, seed)
    bad = 0
    for u, v, members in table:
        bad += (bruhat_interval(u, v) != members
                or interval_texts(u, v) != list(map(perm_to_str, members)))
    return CheckResult(f"interval-oracle[n={n}]", bad == 0, f"{mode}, {bad} mismatches")


def check_flag_oracle(n: int, seed: int = 0) -> CheckResult:
    """flag_of_interval must match the flag of the cover-digraph members.

    The oracle's families are the members' chains of top-value position
    sets, and its verdict applies the exchange and quotient tests that
    flag_of_interval leaves out.
    """
    mode, table = _interval_table(n, seed)
    bad = 0
    for u, v, members in table:
        families = [frozenset(f) for f in zip(*map(chain_of_permutation, members))]
        oracle = [SetMatroid(n=n, bases=f, rank=i) for i, f in enumerate(families, start=1)]
        verdict = (
            all(exchange_violation(f) is None for f in families)
            and all(is_lpm(m) is not None for m in oracle)
            and all(is_quotient(a, b) for a, b in zip(oracle, oracle[1:]))
        )
        matroids, got = flag_of_interval(BruhatInterval(u, v))
        bad += (list(matroids), got) != (oracle, verdict)
    return CheckResult(f"flag-oracle[n={n}]", bad == 0, f"{mode}, {bad} mismatches")


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
    cells = [cell for h in theorem_hyperplanes(n) for cell in predicted_cells(h)]
    bad = [
        f"{m.rank}-constituent of [{''.join(map(str, cell.lo))}, {''.join(map(str, cell.hi))}]"
        for cell in cells
        for m in flag_of_interval(cell)[0]
        if not is_positroid(n, m.bases)
    ]
    return CheckResult(
        f"flag-positroid[n={n}]",
        not bad,
        f"{len(cells)} cells, {n * len(cells)} constituents, {len(bad)} not positroids"
        + (f" (first: {bad[0]})" if bad else ""),
    )


def check_interval_polytope_match(n: int, seed: int = 0) -> CheckResult:
    """Flag polytope vertices must equal the point set of the flag interval."""
    mode, flags = _sampled(all_lpfm_flags(n), n, seed, "flags")
    bad = 0
    for flag in flags:
        interval = lpfm_interval(flag)
        expected = frozenset(tuple(z) for z in interval.members())
        actual = flag_polytope_vertices([to_set_matroid(m) for m in flag.constituents])
        if actual != expected:
            bad += 1
    return CheckResult(
        f"interval-polytope-match[n={n}]", bad == 0, f"{mode}, {bad} mismatches"
    )


def check_theorem_hyperplanes(n: int) -> CheckResult:
    """Both cells of every listed hyperplane are LPM flags, as the paper
    proves and ``check_split`` takes on trust; ``split-classification``
    checks the list itself."""
    hyps = theorem_hyperplanes(n)
    bad = [f"{h}: cells are not LPM flags" for h in hyps
           if not all(flag_of_interval(cell)[1] for cell in predicted_cells(h))]
    return CheckResult(f"theorem-hyperplanes[n={n}]", not bad, "; ".join(bad) or f"{len(hyps)} hyperplanes")


def _face_walk(n: int, support, level: int):
    """(verdict, face) from the 2-faces' own ranges of x_S, never from the
    class lemma: the first square of ``faces_2d`` order cut strictly by the
    level, else the first such hexagon with lo and hi not strictly on
    opposite sides; (None, None) when no face forbids the level."""
    first = {}
    for face in faces_2d(n):
        low = high = 0
        for block in face.blocks:  # S takes m of the block's run of values
            values, m = sorted(face.lo[p - 1] for p in block), len(support.intersection(block))
            low, high = low + sum(values[:m]), high + sum(values[len(values) - m :])
        x_lo, x_hi = (sum(p[i - 1] for i in support) - level for p in (face.lo, face.hi))
        if low < level < high and (face.shape == "square" or x_lo * x_hi >= 0):
            first.setdefault(face.shape, face)
    shape = "square" if "square" in first else "hexagon"
    return ("bad-" + shape, first[shape]) if first else (None, None)


def check_classification(n: int) -> CheckResult:
    """The exhaustive scan finds exactly the listed hyperplanes, and at every
    canonical support and level strictly inside its range the verdict is
    good-split exactly when both closed sides are Bruhat intervals, which
    are then the closed-form cells, the identity's side first; a bad verdict
    and its face are those of the walk over the 2-faces."""
    scanned = exhaustive_scan(n)
    listed = theorem_hyperplanes(n)
    problems = []
    if set(scanned) != set(listed):
        problems.append(f"scan found {len(scanned)} hyperplanes, expected {len(listed)}")
    perms = permutahedron_vertices(n)
    levels = 0
    for s in _canonical_supports(n):
        values = [sum(p[i - 1] for i in s) for p in perms]
        lo, hi = _support_bounds(n, len(s))
        for t in range(lo + 1, hi):
            levels += 1
            sides = [is_bip([p for p, v in zip(perms, values) if side(v, t)]) for side in (le, ge)]
            good = None not in sides
            h = SplitHyperplane(n=n, support=frozenset(s), level=t)
            report = check_split(h)
            if good != (report.verdict == "good-split"):
                problems.append(f"{h}: verdict disagrees with the sides")
            elif good:
                cells = tuple(sides if sides[0].lo == identity(n) else reversed(sides))
                if cells != report.cells:
                    problems.append(f"{h}: cells differ from the closed form")
            elif (report.verdict, report.offending_face) != _face_walk(n, h.support, t):
                problems.append(f"{h}: verdict or face differs from the face walk")
    return CheckResult(
        f"split-classification[n={n}]",
        not problems,
        f"{len(scanned)} good splits, {levels} levels match the interval test"
        f" and {levels - len(scanned)} bad ones the face walk"
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
    lows = {h for h in good if _label(h)[0] == "prefix-low"}
    highs = {h for h in good if _label(h)[0] == "prefix-high"}
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
    return CheckResult(
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
    return CheckResult(
        "l4-poset",
        not problems,
        f"{len(poset.elements)} elements, 6 minimal, 2 maximal"
        if not problems
        else "; ".join(problems),
    )


def _defined_lattice(m: SetMatroid):
    """(circuits, flats) by their definitions, with rank(S) = max |B & S| over the bases."""
    subsets = (frozenset(c) for k in range(m.n + 1) for c in combinations(range(1, m.n + 1), k))
    rank = {s: max(len(b & s) for b in m.bases) for s in subsets}
    return ({s for s, r in rank.items() if r == len(s) - 1 and all(rank[s - {x}] == r for x in s)},
            {s for s, r in rank.items() if all(rank[s | {x}] > r for x in m.ground() - s)})


def check_quotient_criteria(n: int) -> CheckResult:
    """The three quotient criteria and the step-set rule agree, exhaustively on LPMs;
    quotient_chain answers None exactly for the non-quotients and otherwise a chain
    of good-pair removals ending at the quotient; every LPM passes the exchange test
    that to_set_matroid skips and has its circuits and flats by definition."""
    lpms = all_lpms(n)
    disagreements = bad_chains = 0
    for m, big in product(lpms, lpms):
        verdicts = [is_quotient(to_set_matroid(m), to_set_matroid(big), c) for c in (1, 2, 3)]
        disagreements += len({*verdicts, is_lpm_quotient(m, big)}) != 1
        chain = quotient_chain(m, big)
        if verdicts[0]:
            bad_chains += chain is None or _chain_end(big, chain) != m
        else:
            bad_chains += chain is not None
    violations = sum(exchange_violation(lpm_bases(m)) is not None for m in lpms)
    wrong = sum((circuits(m), flats(m)) != _defined_lattice(m) for m in map(to_set_matroid, lpms))
    return CheckResult(
        f"quotient-criteria[n={n}]",
        disagreements == bad_chains == violations == wrong == 0,
        f"{len(lpms) ** 2} pairs, {disagreements} disagreements, {bad_chains} bad chains,"
        f" {violations} not matroids, {wrong} with other circuits or flats",
    )


def _chain_end(m, chain):
    """Where a chain of (good pair, elementary quotient) steps from m ends, or None
    at a step that is not one."""
    for pair, nxt in chain:
        if pair not in good_pairs(m) or nxt != elementary_quotient(m, pair):
            return None
        m = nxt
    return m


def check_good_pairs(n: int) -> CheckResult:
    """(u, l) is good exactly when removing it yields a quotient."""
    bad = 0
    checked = 0
    for m in all_lpms(n):
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
    return CheckResult(
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
    return CheckResult(
        f"exact-kernel[n={n}]",
        not problems,
        f"{len(pts)} vertices, {_SAMPLES} basis counts"
        if not problems
        else "; ".join(problems),
    )


def run_checks(n: int, seed: int = 0) -> list[CheckResult]:
    """Every check applicable at ground-set size n."""
    if not 3 <= n <= MAX_VERIFY_N:
        raise DomainError(f"verify needs 3 <= n <= {MAX_VERIFY_N}, got n={n}")
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
