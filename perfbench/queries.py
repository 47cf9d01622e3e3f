"""The seeded request stream of the ``queries`` workload, and its checks.

A pass sends FULL_8, then MIX's requests and MALFORMED shuffled, one at a
time through ``permsplit.cli.main(argv)``.  Every request is distinct within
a pass, and every answer is checked against the computations in oracle.py.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

import oracle as O

# (kind, requests per pass): light requests first, then medium, then heavy.
# split-good-6 takes all 14 good splits at n=6, in seeded order and written
# form, so the tail (query_p90_ms falls among them) is the same work for
# every seed.
MIX = (
    ("bruhat-leq", 20),
    ("bruhat-dual", 10),
    ("lpm-bases", 12),
    ("lpm-chain", 8),
    ("quotient-check", 8),
    ("from-matrix", 6),
    ("interval-7", 6),
    ("flag-of-interval", 5),
    ("split-bad-5", 4),
    ("split-bad-6", 4),
    ("interval-8-small", 7),
    ("split-good-6", 14),
)

# The whole of S_8, the largest answer, opens every pass.  Its place is fixed
# because the pass's peak memory depends on it (65 MB first, 76 MB last), and
# it pays the pass's one cold build of the n=8 prefix cache.
FULL_8 = ("bruhat", "interval", "12345678", "87654321")

# Three malformed requests, the same in every pass.  Each should end with
# exit code 1 or 2; today each raises out of cli.main instead, which counts as
# a failed request.
MALFORMED = (
    ("matroid", "validate", "{bad"),
    ("matroid", "circuits", "@no-such-matroid.json"),
    ("matroid", "from-matrix", '[["1/0"]]'),
)


# --- generation ----------------------------------------------------------------


def _perm(rng, n):
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def _move(rng, w, steps, up):
    """Apply random transpositions that raise (or lower) w in Bruhat order."""
    w = list(w)
    for _ in range(steps):
        pairs = [
            (i, j) for i in range(len(w)) for j in range(i + 1, len(w))
            if (w[i] < w[j]) == up
        ]
        if not pairs:
            break
        i, j = rng.choice(pairs)
        w[i], w[j] = w[j], w[i]
    return tuple(w)


def _lpm(rng, n, k):
    a = sorted(rng.sample(range(1, n + 1), k))
    b = sorted(rng.sample(range(1, n + 1), k))
    return tuple(map(min, a, b)), tuple(map(max, a, b))


def _text(values):
    return "".join(map(str, values))


def _hyperplane_text(support, level):
    return "+".join(f"x{i}" for i in support) + f"={level}"


def _gen_bruhat_leq(rng):
    u = _perm(rng, 8)
    v = _move(rng, u, rng.randint(1, 4), up=True) if rng.random() < 0.5 else _perm(rng, 8)
    return ["bruhat", "leq", _text(u), _text(v)], {"u": u, "v": v}


def _gen_bruhat_dual(rng):
    lo = _perm(rng, 8)
    if rng.random() < 0.5:
        return ["bruhat", "dual", _text(lo)], {"u": lo}
    hi = _move(rng, lo, rng.randint(1, 4), up=True)
    return ["bruhat", "dual", _text(lo), _text(hi)], {"lo": lo, "hi": hi}


def _gen_lpm_bases(rng):
    upper, lower = _lpm(rng, 8, rng.randint(2, 6))
    return ["lpm", "bases", "-n", "8", _text(upper), _text(lower)], {"U": upper, "L": lower}


def _gen_lpm_chain(rng):
    upper, lower = _lpm(rng, 8, rng.randint(3, 6))
    u, l = list(upper), list(lower)
    for _ in range(rng.randint(1, 2)):
        pairs = [(a, b) for a in u for b in l if O.is_good_pair(u, l, a, b)]
        a, b = rng.choice(pairs)
        u.remove(a)
        l.remove(b)
    argv = ["lpm", "chain", "-n", "8", _text(u), _text(l), _text(upper), _text(lower)]
    return argv, {"lo": (tuple(u), tuple(l)), "hi": (upper, lower)}


def _int_rows(rng, r, n):
    while True:
        rows = [[rng.choice((-1, 0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(r)]
        if O.rank(rows) == r:
            return rows


def _gen_quotient_check(rng):
    n, r = rng.randint(4, 6), rng.randint(2, 3)
    rows = _int_rows(rng, r, n)
    small = {"n": n, "bases": O.column_bases(rows[:-1])}
    big = {"n": n, "bases": O.column_bases(rows)}
    return ["matroid", "quotient-check", json.dumps(small), json.dumps(big)], {}


def _gen_from_matrix(rng):
    n, r = rng.randint(4, 6), rng.randint(2, 3)
    rows = [
        [str(Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(n)]
        for _ in range(r)
    ]
    if not O.rank(rows):
        rows[0][0] = "1"
    return ["matroid", "from-matrix", json.dumps(rows)], {"rows": rows}


def _gen_interval(n, wide_share):
    """Near-full intervals with probability wide_share, small ones otherwise."""

    def gen(rng):
        e, w0 = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
        if rng.random() < wide_share:
            lo = _move(rng, e, rng.randint(0, 3), up=True)
            hi = _move(rng, w0, rng.randint(0, 3), up=False)
        else:
            lo = _perm(rng, n)
            hi = _move(rng, lo, rng.randint(1, 3), up=True)
        if not O.bruhat(n).leq(lo, hi):
            return None
        return ["bruhat", "interval", _text(lo), _text(hi)], {"lo": lo, "hi": hi}

    return gen


@lru_cache(maxsize=None)
def theorem_cells(n):
    """Both sides of every closed-form split at n, as (lo, hi) pairs."""
    cells = []
    for support, level in O.split_hyperplanes(n):
        for below in (True, False):
            side = sorted(
                z for z in permutations(range(1, n + 1))
                if (O.x_sum(z, support) <= level if below else O.x_sum(z, support) >= level)
            )
            lo, hi = min(side, key=O.length), max(side, key=O.length)
            if O.bruhat(n).interval(lo, hi) != side:
                raise AssertionError(f"side of x_{support}={level} is not [{lo}, {hi}]")
            cells.append((lo, hi))
    return tuple(cells)


def _gen_flag_of_interval(rng):
    lo, hi = rng.choice(theorem_cells(6))
    return ["flag", "of-interval", _text(lo), _text(hi)], {"lo": lo, "hi": hi}


def _written(rng, n, support, level):
    """The hyperplane as S or as its complement, chosen at random."""
    if rng.random() < 0.5:
        support = tuple(i for i in range(1, n + 1) if i not in support)
        level = n * (n + 1) // 2 - level
    return support, level


def _gen_split_bad(n):
    def gen(rng):
        support = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))))
        lo, hi = O.level_range(n, len(support))
        level = rng.randint(lo + 1, hi - 1)
        if O.normalize(n, support, level) in O.split_hyperplanes(n):
            return None
        argv = ["split", "check", "-n", str(n), _hyperplane_text(support, level)]
        return argv, {"n": n, "S": support, "alpha": level}

    return gen


def _gen_split_good(rng):
    support, level = _written(rng, 6, *rng.choice(O.split_hyperplanes(6)))  # until all 14 are drawn
    argv = ["split", "check", "-n", "6", _hyperplane_text(support, level)]
    return argv, {"n": 6, "S": support, "alpha": level}


GENERATORS = {
    "bruhat-leq": _gen_bruhat_leq,
    "bruhat-dual": _gen_bruhat_dual,
    "lpm-bases": _gen_lpm_bases,
    "lpm-chain": _gen_lpm_chain,
    "quotient-check": _gen_quotient_check,
    "from-matrix": _gen_from_matrix,
    "interval-7": _gen_interval(7, wide_share=0.5),
    "flag-of-interval": _gen_flag_of_interval,
    "split-bad-5": _gen_split_bad(5),
    "split-bad-6": _gen_split_bad(6),
    "interval-8-small": _gen_interval(8, wide_share=0.0),
    "split-good-6": _gen_split_good,
}


def generate(seed: int) -> list[dict]:
    """The pass's requests: FULL_8, then MIX from the seed and MALFORMED, shuffled."""
    rng = random.Random(seed)
    requests, seen = [], {FULL_8}
    for kind, count in MIX:
        made = 0
        while made < count:
            made_one = GENERATORS[kind](rng)
            if made_one is None:
                continue
            argv, meta = made_one
            key = _dedup_key(kind, argv, meta)
            if key in seen:
                continue
            seen.add(key)
            requests.append({"kind": kind, "argv": argv + ["--format", "json"], "meta": meta})
            made += 1
    for argv in MALFORMED:
        requests.append({"kind": "malformed", "argv": list(argv) + ["--format", "json"], "meta": {}})
    rng.shuffle(requests)
    full = {"lo": tuple(range(1, 9)), "hi": tuple(range(8, 0, -1))}
    return [{"kind": "interval-8-full", "argv": list(FULL_8) + ["--format", "json"], "meta": full}] + requests


def _dedup_key(kind, argv, meta):
    if kind.startswith("split"):
        return kind, O.normalize(meta["n"], meta["S"], meta["alpha"])
    return tuple(argv)


# --- checks ----------------------------------------------------------------------


def _check_bruhat_leq(meta, doc):
    if doc != {"leq": O.bruhat(8).leq(meta["u"], meta["v"])}:
        return f"leq answer {doc}"


def _check_bruhat_dual(meta, doc):
    if "u" in meta:
        want = {"dual": O.perm_text(O.dual(meta["u"]))}
    else:
        lo, hi = O.dual(meta["hi"]), O.dual(meta["lo"])
        if not O.bruhat(8).leq(lo, hi):
            return "dual interval is not an interval"
        want = {"dual": {"lo": O.perm_text(lo), "hi": O.perm_text(hi)}}
    if doc != want:
        return f"dual answer {doc}, expected {want}"


def _check_lpm_bases(meta, doc):
    upper, lower = meta["U"], meta["L"]
    bases = doc["bases"]
    count = O.lattice_path_count(upper, lower)
    if doc["count"] != count or len(bases) != count or len({tuple(b) for b in bases}) != count:
        return f"{doc['count']} bases listed, {count} lattice paths"
    if doc["lpm"] != {"n": 8, "U": list(upper), "L": list(lower)}:
        return f"lpm echoed as {doc['lpm']}"
    if not all(O.gale_leq(upper, b) and O.gale_leq(b, lower) for b in bases):
        return "a listed basis lies outside the Gale interval"


def _check_lpm_chain(meta, doc):
    chain = doc["chain"]
    if chain is None:
        return "no chain to a quotient reached by good pairs"
    u, l = list(meta["hi"][0]), list(meta["hi"][1])
    for step in chain:
        a, b = step["pair"]["u"], step["pair"]["l"]
        if a not in u or b not in l or not O.is_good_pair(u, l, a, b):
            return f"step ({a},{b}) is not a good pair of M[{u},{l}]"
        u.remove(a)
        l.remove(b)
        if step["lpm"] != {"n": 8, "U": u, "L": l}:
            return f"step lpm {step['lpm']}"
    if (tuple(u), tuple(l)) != meta["lo"]:
        return f"chain ends at M[{u},{l}]"


def _check_quotient(meta, doc):
    if doc != {"quotient": {"1": True, "2": True, "3": True}}:
        return f"truncation pair judged {doc}"


def _check_from_matrix(meta, doc):
    rows = meta["rows"]
    want = {"matroid": {"n": len(rows[0]), "bases": O.column_bases(rows)}}
    if doc != want:
        return f"column matroid {doc}, expected {want}"


def _check_interval(meta, doc):
    lo, hi = meta["lo"], meta["hi"]
    if doc["lo"] != O.perm_text(lo) or doc["hi"] != O.perm_text(hi):
        return "interval ends echoed wrongly"
    if doc["members"] != [O.perm_text(z) for z in O.bruhat(len(lo)).interval(lo, hi)]:
        return f"members of [{O.perm_text(lo)}, {O.perm_text(hi)}] differ"


def _check_flag(meta, doc):
    lo, hi = meta["lo"], meta["hi"]
    n = len(lo)
    members = O.bruhat(n).interval(lo, hi)
    want = [
        {"n": n, "bases": sorted(
            {tuple(sorted(p + 1 for p in range(n) if z[p] >= n - i + 1)) for z in members}
        )}
        for i in range(1, n + 1)
    ]
    got = [{"n": c["n"], "bases": [tuple(b) for b in c["bases"]]} for c in doc["constituents"]]
    if got != want:
        return "constituents differ from the interval's basis families"
    if doc["lpfm"] is not True:
        return "a cell of a closed-form split is not an LPM flag"


def _check_split(meta, doc):
    n, support, alpha = meta["n"], meta["S"], meta["alpha"]
    good = O.normalize(n, support, alpha) in O.split_hyperplanes(n)
    verdict = doc["verdict"]
    if (verdict == "good-split") != good:
        return f"verdict {verdict} for a hyperplane {'in' if good else 'not in'} the closed-form list"
    if good:
        if doc["lpfm"] != [True, True]:
            return f"theorem cells give lpfm {doc['lpfm']}"
        oracle = O.bruhat(n)
        cells = [
            frozenset(oracle.interval(O.perm_of(c["lo"]), O.perm_of(c["hi"]))) for c in doc["cells"]
        ]
        perms = oracle.all_perms()
        sides = {
            frozenset(z for z in perms if O.x_sum(z, support) <= alpha),
            frozenset(z for z in perms if O.x_sum(z, support) >= alpha),
        }
        if set(cells) != sides:
            return "cells are not the two sides of the hyperplane"
        if tuple(range(1, n + 1)) not in cells[0] or tuple(range(n, 0, -1)) not in cells[1]:
            return "cells are not ordered (identity cell, top cell)"
        return None
    if verdict not in ("bad-square", "bad-hexagon"):
        return f"verdict {verdict} for an integer level inside the range"
    face = doc["offending_face"]
    blocks = [tuple(b) for b in face["blocks"]]
    sizes = sorted(len(b) for b in blocks)
    shape = "hexagon" if 3 in sizes else "square" if sizes.count(2) == 2 else None
    if sorted(i for b in blocks for i in b) != list(range(1, n + 1)) or len(blocks) != n - 2:
        return f"offending face {blocks} is not a 2-face"
    if face["shape"] != shape or verdict != f"bad-{shape}":
        return f"face {blocks} reported as {face['shape']} with verdict {verdict}"
    sums = [O.x_sum(z, support) for z in O.face_vertices(blocks, n)]
    if not (min(sums) < alpha < max(sums)):
        return f"face {blocks} has no vertices strictly on both sides"


CHECKS = {
    "bruhat-leq": _check_bruhat_leq,
    "bruhat-dual": _check_bruhat_dual,
    "lpm-bases": _check_lpm_bases,
    "lpm-chain": _check_lpm_chain,
    "quotient-check": _check_quotient,
    "from-matrix": _check_from_matrix,
    "interval-7": _check_interval,
    "flag-of-interval": _check_flag,
    "split-bad-5": _check_split,
    "split-bad-6": _check_split,
    "interval-8-small": _check_interval,
    "interval-8-full": _check_interval,
    "split-good-6": _check_split,
}


def check(requests, answers) -> tuple[list[str], int]:
    """Problems found in a pass's answers, and the number of failed requests.

    A request fails when an exception escapes cli.main.  Only the malformed
    requests may fail; any other failure, and any wrong answer, is a problem.
    """
    problems, failed = [], 0
    for req, (code, stdout, error, _) in zip(requests, answers, strict=True):
        where = " ".join(req["argv"])
        if error is not None:
            failed += 1
            if req["kind"] != "malformed":
                problems.append(f"{where}: raised {error}")
            continue
        if req["kind"] == "malformed":
            if code not in (1, 2):
                problems.append(f"{where}: exit code {code}, expected 1 or 2")
            continue
        if code != 0:
            problems.append(f"{where}: exit code {code}")
            continue
        try:
            problem = CHECKS[req["kind"]](req["meta"], json.loads(stdout))
        except (KeyError, TypeError, ValueError) as exc:
            problem = f"malformed answer ({type(exc).__name__}: {exc})"
        if problem:
            problems.append(f"{where}: {problem}")
    return problems, failed
