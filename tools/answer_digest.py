"""Digests of the CLI's answers to a fixed corpus of requests, one line per group.

Run from anywhere as ``python3 tools/answer_digest.py``; it takes no options.
Every request goes in-process through ``permsplit.cli.main`` of the checkout
this script sits in, and each group's line gives its request count and the
SHA-1 over every request's (argv, exit code, stdout, stderr).  A request that
raises out of ``main`` is recorded with the exception's type name in place of
the exit code, and the run goes on.  Two checkouts whose lines agree answer
the corpus byte for byte alike, so copying this file into a checkout of
another commit compares the two.

The groups:

* ``queries``: every request of the ``queries`` workload for seeds 1-10, read
  through ``perfbench/queries.generate``, as generated (JSON) and as a table;
* ``split-check``: every level from the least to the greatest x_S of every
  nonempty proper support S (both sides of each cut), n = 3..7, in both forms;
* ``split-theorem``: n = 3..60, in both forms;
* ``split-dual``: ``split scan`` at n = 3..8 and ``split dual`` on every
  hyperplane it lists, in both forms;
* ``poset``: ``poset build`` and ``poset export`` at n = 3 and 4, as table,
  JSON and DOT;
* ``verify``: ``verify -n 3``, ``-n 4`` and ``-n 5``;
* ``huge-n``: requests at n = 3,000,000 whose answers or refusals do not grow
  with n, in both forms;
* ``malformed``: hyperplanes with a 5,000-digit integer as a level or an
  index, and ``flag polytope`` of one constituent at n = 300,000, in both
  forms;
* ``doors``: requests whose cost follows their text, in both forms: matroids
  whose one basis is {10^5} or {10^12} (validated, quotient-checked by
  criterion 3 and as a one-constituent flag polytope), a JSON document of
  60,000 ``[``, ``bruhat leq`` of e and w0 at n = 2,000, and ``matroid
  from-matrix`` of a rank-7 matrix of 14 columns with its rows repeated to 140.

It took 11 s on a 2-core machine; 22 s on a commit whose exchange masks
covered [n] and whose ``bruhat leq`` summed a table of n weights, and 19 s on
a commit whose checks built [n] for the ``huge-n`` requests (about 400 MB
each).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from permsplit import cli
from queries import generate

JSON = ["--format", "json"]
HUGE = 3_000_000


def answer(argv: list[str]) -> tuple[int | str, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback's type stands in for the exit code
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def both_forms(requests):
    for argv in requests:
        yield argv
        yield argv + JSON


def queries():
    # every generated request ends with --format json
    return both_forms(request["argv"][:-2] for seed in range(1, 11) for request in generate(seed))


def split_checks():
    for n in range(3, 8):
        for k in range(1, n):
            for s in combinations(range(1, n + 1), k):
                lo, hi = sum(range(1, k + 1)), sum(range(n - k + 1, n + 1))
                terms = "+".join(f"x{i}" for i in s)
                yield from both_forms(
                    ["split", "check", "-n", str(n), f"{terms}={t}"] for t in range(lo, hi + 1))


def split_theorems():
    return both_forms(["split", "theorem", "-n", str(n)] for n in range(3, 61))


def split_duals():
    for n in range(3, 9):
        scan = ["split", "scan", "-n", str(n)]
        yield from both_forms([scan])
        for h in json.loads(answer(scan + JSON)[1])["hyperplanes"]:
            text = "+".join(f"x{i}" for i in h["S"]) + f"={h['alpha']}"
            yield from both_forms([["split", "dual", "-n", str(n), text]])


def posets():
    for n in ("3", "4"):
        for action in ("build", "export"):
            for fmt in ("table", "json", "dot"):
                yield ["poset", action, "-n", n, "--format", fmt]


def verifies():
    return (["verify", "-n", str(n)] for n in (3, 4, 5))


def huge_n():
    n, one = str(HUGE), json.dumps({"n": HUGE, "bases": [[1]]})
    flag = [{"n": HUGE, "U": s, "L": s} for s in ([1], [1, 2])]
    return both_forms([
        ["split", "dual", "-n", n, "x1=2"],
        ["split", "check", "-n", n, "x1=2"],
        ["lpm", "bases", "-n", n, "1", "1"],
        ["lpm", "good-pairs", "-n", n, "1", "1"],
        ["lpm", "chain", "-n", n, "1", "1", "1,2", "1,2"],
        ["matroid", "validate", one],
        ["matroid", "circuits", one],
        ["matroid", "quotient-check", one, one, "--criterion", "3"],
        ["flag", "interval", json.dumps({"n": HUGE, "constituents": flag[:1]})],
        ["flag", "polytope", json.dumps({"n": HUGE, "constituents": flag})],
    ])


def malformed():
    ones, n = "1" * 5000, 300_000
    return both_forms([
        ["split", "dual", "-n", "5", f"x1={ones}"],
        ["split", "check", "-n", "5", f"x{ones}=2"],
        ["split", "check", "-n", "5", f"x_{{{ones}}}=2"],
        ["flag", "polytope", json.dumps({"n": n, "constituents": [{"n": n, "U": [1], "L": [1]}]})],
    ])


def doors():
    far = 10**12
    one = json.dumps({"n": far, "bases": [[far]]})
    two = json.dumps({"n": far, "bases": [[1, far], [2, far]]})
    rng = random.Random(7)
    rows = [[rng.randint(-3, 3) for _ in range(14)] for _ in range(7)]
    e, w0 = (",".join(map(str, p)) for p in (range(1, 2001), range(2000, 0, -1)))
    return both_forms([
        ["matroid", "validate", json.dumps({"n": 10**5, "bases": [[10**5]]})],
        ["matroid", "validate", one],
        ["matroid", "quotient-check", one, two, "--criterion", "3"],
        ["flag", "polytope", json.dumps({"n": far, "constituents": [json.loads(one)]})],
        ["matroid", "validate", "[" * 60_000],
        ["bruhat", "leq", e, w0],
        ["bruhat", "leq", w0, e],
        ["matroid", "from-matrix", json.dumps([rows[i % 7] for i in range(140)])],
    ])


GROUPS = {
    "queries": queries,
    "split-check": split_checks,
    "split-theorem": split_theorems,
    "split-dual": split_duals,
    "poset": posets,
    "verify": verifies,
    "huge-n": huge_n,
    "malformed": malformed,
    "doors": doors,
}


def main() -> None:
    for name, requests in GROUPS.items():
        digest, count = hashlib.sha1(), 0
        for argv in requests():
            record = [argv, *answer(argv)]
            digest.update(json.dumps(record).encode() + b"\n")
            count += 1
        print(f"{name:<14} {count:>6}  {digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main()
