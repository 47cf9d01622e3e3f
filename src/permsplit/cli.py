"""Command-line interface.

Exit codes: 0 success, 1 domain errors, 2 usage errors, 3 a broken internal
invariant (``errors.InvariantError``, a fault of the program, not of the
input).  ``--format json`` gives machine output everywhere; the default is
an aligned table, and ``poset`` also writes Graphviz DOT with ``--format dot``.

``build_parser`` makes the argparse tree once per process, with a table of
its leaf parsers keyed by (command, action).  ``main`` hands the
arguments after those two words straight to that leaf, one argparse level
instead of three; it falls back to the whole tree when no leaf matches (help,
no command, an unknown command or action, ``verify``, options before the
command) or the leaf leaves extras, so every help text and error, and the
``unrecognized arguments`` message of prog ``permsplit``, are argparse's own.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from .errors import DomainError, InvariantError, _json_text
from . import lpm as lpm_mod
from . import matroid as matroid_mod
from . import subdivision as subdivision_mod
from .perm import (
    BruhatInterval,
    _int_list,
    bruhat_leq,
    dual_interval,
    dual_permutation,
    interval_texts,
    perm_from_str,
    perm_to_str,
)
from .polytope import flag_polytope_vertices, point_to_json
from .splits import (
    SplitHyperplane,
    check_split,
    dual_hyperplane,
    exhaustive_scan,
    hyperplane_text,
    hyperplane_to_json,
    predicted_cells,
    theorem_hyperplanes,
)


class UsageError(Exception):
    pass


_HYP_SUM = re.compile(r"^x(\d+)(\+x(\d+))*=(-?\d+)$")
_HYP_SET = re.compile(r"^x_\{(\d+(,\d+)*)\}=(-?\d+)$")


def parse_hyperplane(text: str, n: int) -> SplitHyperplane:
    """Parse "x1+x2=4" or "x_{1,3}=7" with bounds checks against n."""
    text = text.replace(" ", "")
    m = _HYP_SET.match(text)
    if m:
        support = [int(t) for t in m.group(1).split(",")]
        level = int(m.group(3))
    elif _HYP_SUM.match(text):
        lhs, rhs = text.split("=")
        support = [int(t[1:]) for t in lhs.split("+")]
        level = int(rhs)
    else:
        raise UsageError(f"malformed hyperplane {text!r}")
    if len(set(support)) != len(support):
        raise UsageError(f"repeated index in {text!r}")
    if any(not 1 <= i <= n for i in support):
        bad = next(i for i in support if not 1 <= i <= n)
        raise UsageError(f"index {bad} out of range 1..{n} in {text!r}")
    try:
        return SplitHyperplane(n=n, support=frozenset(support), level=level)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _read_doc(arg: str):
    try:
        if arg == "-":
            return json.loads(sys.stdin.read())
        if arg.startswith("@"):
            with open(arg[1:], encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(arg)
    except OSError as exc:
        raise UsageError(f"cannot read {arg}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, or undecodable bytes
        raise UsageError(f"malformed JSON: {exc}") from exc


def _subset_from_str(s: str):
    s = s.strip()
    if s in ("", "-"):
        return ()
    try:
        return tuple(_int_list(s))
    except ValueError:
        raise UsageError(f"malformed subset text {s!r}") from None


def _emit(payload, rows, fmt):
    """payload: json object; rows: list of (label, value) or list of strings."""
    if fmt == "json":
        print(_json_text(payload))
        return
    if rows and isinstance(rows[0], tuple):
        width = max(len(k) for k, _ in rows)
        rows = [f"{k.ljust(width)}  {v}" for k, v in rows]
    if rows:
        print("\n".join(rows))


def _interval_json(iv: BruhatInterval):
    return {"lo": perm_to_str(iv.lo), "hi": perm_to_str(iv.hi)}


def _report_payload(report):
    payload = {"verdict": report.verdict}
    if report.cells:
        payload["cells"] = [_interval_json(c) for c in report.cells]
        payload["lpfm"] = list(report.lpfm)
    if report.offending_face is not None:
        payload["offending_face"] = {
            "blocks": [list(b) for b in report.offending_face.blocks],
            "shape": report.offending_face.shape,
        }
    if report.reason:
        payload["reason"] = report.reason
    return payload


def _cmd_bruhat(args) -> int:
    fmt = args.format
    if args.action == "leq":
        u, v = perm_from_str(args.perms[0]), perm_from_str(args.perms[1])
        res = bruhat_leq(u, v)
        _emit({"leq": res}, [("leq", str(res).lower())], fmt)
    elif args.action == "interval":
        u, v = perm_from_str(args.perms[0]), perm_from_str(args.perms[1])
        members = interval_texts(u, v)
        _emit(
            {"lo": perm_to_str(u), "hi": perm_to_str(v), "members": members},
            members,
            fmt,
        )
    else:  # dual
        if len(args.perms) > 2:
            raise UsageError("dual takes one permutation or an interval pair")
        if len(args.perms) == 1:
            d = dual_permutation(perm_from_str(args.perms[0]))
            _emit({"dual": perm_to_str(d)}, [("dual", perm_to_str(d))], fmt)
        else:
            iv = BruhatInterval(perm_from_str(args.perms[0]), perm_from_str(args.perms[1]))
            d = dual_interval(iv)
            _emit(
                {"dual": _interval_json(d)},
                [("lo", perm_to_str(d.lo)), ("hi", perm_to_str(d.hi))],
                fmt,
            )
    return 0


def _cmd_lpm(args) -> int:
    fmt = args.format
    n = args.n
    if args.action == "bases":
        m = lpm_mod.lpm_new(n, _subset_from_str(args.args[0]), _subset_from_str(args.args[1]))
        bases = sorted(tuple(sorted(b)) for b in lpm_mod.lpm_bases(m))
        _emit(
            {"lpm": lpm_mod.lpm_to_json(m), "bases": [list(b) for b in bases],
             "count": len(bases)},
            [",".join(map(str, b)) for b in bases],
            fmt,
        )
    elif args.action == "good-pairs":
        m = lpm_mod.lpm_new(n, _subset_from_str(args.args[0]), _subset_from_str(args.args[1]))
        pairs = lpm_mod.good_pairs(m)
        _emit(
            {"pairs": [{"u": p.u, "l": p.l, "j": p.j, "i": p.i} for p in pairs]},
            [f"u={p.u} (j={p.j})  l={p.l} (i={p.i})" for p in pairs],
            fmt,
        )
    elif args.action == "quotient":
        m = lpm_mod.lpm_new(n, _subset_from_str(args.args[0]), _subset_from_str(args.args[1]))
        try:
            u, l = (int(t) for t in args.pair.split(","))
        except ValueError as exc:
            raise UsageError(f"--pair needs two integers u,l, got {args.pair!r}") from exc
        q = lpm_mod.elementary_quotient(m, lpm_mod.good_pair(m, u, l))
        _emit({"quotient": lpm_mod.lpm_to_json(q)}, [("quotient", str(q))], fmt)
    else:  # chain
        lo = lpm_mod.lpm_new(n, _subset_from_str(args.args[0]), _subset_from_str(args.args[1]))
        hi = lpm_mod.lpm_new(n, _subset_from_str(args.args[2]), _subset_from_str(args.args[3]))
        chain = lpm_mod.quotient_chain(lo, hi)
        if chain is None:
            _emit({"chain": None}, [("chain", "none")], fmt)
        else:
            steps = [
                {"pair": {"u": p.u, "l": p.l}, "lpm": lpm_mod.lpm_to_json(m)}
                for p, m in chain
            ]
            _emit(
                {"chain": steps},
                [f"remove ({p.u},{p.l}) -> {m}" for p, m in chain] or ["(equal)"],
                fmt,
            )
    return 0


def _cmd_matroid(args) -> int:
    fmt = args.format
    if args.action == "validate":
        m = matroid_mod.matroid_from_json(_read_doc(args.docs[0]))
        _emit(
            {"ok": True, "n": m.n, "rank": m.rank, "bases": len(m.bases)},
            [("ok", "true"), ("rank", str(m.rank)), ("bases", str(len(m.bases)))],
            fmt,
        )
    elif args.action == "circuits":
        m = matroid_mod.matroid_from_json(_read_doc(args.docs[0]))
        circs = sorted(tuple(sorted(c)) for c in matroid_mod.circuits(m))
        _emit(
            {"circuits": [list(c) for c in circs]},
            [",".join(map(str, c)) for c in circs] or ["(none)"],
            fmt,
        )
    elif args.action == "flats":
        m = matroid_mod.matroid_from_json(_read_doc(args.docs[0]))
        fl = sorted((len(f), tuple(sorted(f))) for f in matroid_mod.flats(m))
        _emit(
            {"flats": [list(f) for _, f in fl]},
            [",".join(map(str, f)) if f else "{}" for _, f in fl],
            fmt,
        )
    elif args.action == "quotient-check":
        m = matroid_mod.matroid_from_json(_read_doc(args.docs[0]))
        big = matroid_mod.matroid_from_json(_read_doc(args.docs[1]))
        if args.criterion == "all":
            verdicts = {
                str(c): matroid_mod.is_quotient(m, big, c) for c in (1, 2, 3)
            }
        else:
            c = int(args.criterion)
            verdicts = {str(c): matroid_mod.is_quotient(m, big, c)}
        _emit(
            {"quotient": verdicts},
            [(f"criterion {k}", str(v).lower()) for k, v in verdicts.items()],
            fmt,
        )
    else:  # from-matrix
        m = matroid_mod.matroid_from_rational_matrix(_read_doc(args.docs[0]))
        _emit(
            {"matroid": matroid_mod.matroid_to_json(m)},
            [("rank", str(m.rank)), ("bases", str(len(m.bases)))],
            fmt,
        )
    return 0


def _cmd_flag(args) -> int:
    fmt = args.format
    if args.action == "interval":
        flag = lpm_mod.flag_from_json(_read_doc(args.args[0]))
        iv = lpm_mod.lpfm_interval(flag)
        _emit(
            {"interval": _interval_json(iv)},
            [("lo", perm_to_str(iv.lo)), ("hi", perm_to_str(iv.hi))],
            fmt,
        )
    elif args.action == "polytope":
        constituents = lpm_mod.flag_matroids_from_json(_read_doc(args.args[0]))
        pts = sorted(flag_polytope_vertices(constituents))
        _emit(
            {"vertices": [point_to_json(p) for p in pts]},
            ["(" + ", ".join(str(x) for x in p) + ")" for p in pts],
            fmt,
        )
    else:  # of-interval
        iv = BruhatInterval(perm_from_str(args.args[0]), perm_from_str(args.args[1]))
        matroids, verdict = lpm_mod.flag_of_interval(iv)
        _emit(
            {
                "constituents": [matroid_mod.matroid_to_json(m) for m in matroids],
                "lpfm": verdict,
            },
            [(f"rank {m.rank}", f"{len(m.bases)} bases") for m in matroids]
            + [("lpfm", str(verdict).lower())],
            fmt,
        )
    return 0


def _cmd_split(args) -> int:
    fmt = args.format
    n = args.n
    if args.action == "check":
        report = check_split(parse_hyperplane(args.hyperplane, n))
        rows = [("verdict", report.verdict)]
        if report.cells:
            rows += [
                ("cell(e)", f"[{perm_to_str(report.cells[0].lo)}, {perm_to_str(report.cells[0].hi)}]"),
                ("cell(w)", f"[{perm_to_str(report.cells[1].lo)}, {perm_to_str(report.cells[1].hi)}]"),
                ("lpfm", f"{report.lpfm[0]}, {report.lpfm[1]}".lower()),
            ]
        if report.offending_face is not None:
            rows.append(("face", str(report.offending_face.blocks)))
        if report.reason:
            rows.append(("reason", report.reason))
        _emit(_report_payload(report), rows, fmt)
    elif args.action == "scan":
        hyps = exhaustive_scan(n)
        _emit(
            {"hyperplanes": [hyperplane_to_json(h) for h in hyps]},
            [hyperplane_text(h) for h in hyps],
            fmt,
        )
    elif args.action == "theorem":
        hyps = theorem_hyperplanes(n)
        payload = []
        rows = []
        for h in hyps:
            cells = predicted_cells(h)
            payload.append(
                {"hyperplane": hyperplane_to_json(h),
                 "cells": [_interval_json(c) for c in cells]}
            )
            rows.append(
                f"{hyperplane_text(h)}  ->  [{perm_to_str(cells[0].lo)},{perm_to_str(cells[0].hi)}]"
                f" | [{perm_to_str(cells[1].lo)},{perm_to_str(cells[1].hi)}]"
            )
        _emit({"hyperplanes": payload}, rows, fmt)
    else:  # dual
        h = parse_hyperplane(args.hyperplane, n)
        d = dual_hyperplane(h)
        _emit(
            {"dual": hyperplane_to_json(d)},
            [("dual", hyperplane_text(d))],
            fmt,
        )
    return 0


def _cmd_poset(args) -> int:
    fmt = args.format
    poset = subdivision_mod.build_poset(args.n)
    if args.action == "export" or fmt in ("dot", "json"):
        out_fmt = fmt if fmt in ("dot", "json") else "dot"
        sys.stdout.write(subdivision_mod.export_poset(poset, out_fmt))
        return 0
    rows = [
        ("elements", str(len(poset.elements))),
        ("minimal", str(len(poset.minimal_indices()))),
        ("maximal", str(len(poset.maximal_indices()))),
        ("covers", str(len(poset.covers))),
    ]
    _emit({}, rows, "table")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(args.n, seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed (n={args.n}, seed={args.seed})")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process and reused by every ``main``."""
    return _parsers()[0]


@lru_cache(maxsize=None)
def _parsers() -> tuple[argparse.ArgumentParser, dict[tuple[str, str], argparse.ArgumentParser]]:
    """The argparse tree and its leaf parsers by (command, action)."""
    leaves = {}
    parser = argparse.ArgumentParser(
        prog="permsplit",
        description="Bruhat order, lattice path matroid flags, and hyperplane "
        "splits of the permutahedron, in exact arithmetic.",
    )
    groups = parser.add_subparsers(dest="command", required=True)

    def action_parser(group, command, name, func):
        p = leaves[command, name] = group.add_parser(name)
        p.set_defaults(func=func, action=name)
        formats = ("table", "json", "dot") if func is _cmd_poset else ("table", "json")
        p.add_argument("--format", choices=formats, default="table")
        return p

    bruhat = groups.add_parser("bruhat", help="Bruhat order operations").add_subparsers(
        dest="action", required=True
    )
    for name in ("leq", "interval", "dual"):
        p = action_parser(bruhat, "bruhat", name, _cmd_bruhat)
        count = "+" if name == "dual" else 2
        p.add_argument("perms", nargs=count, help="e.g. 3142 or 10,3,1,2,...")

    lpm = groups.add_parser("lpm", help="lattice path matroid operations").add_subparsers(
        dest="action", required=True
    )
    for name, count in (("bases", 2), ("good-pairs", 2), ("quotient", 2), ("chain", 4)):
        p = action_parser(lpm, "lpm", name, _cmd_lpm)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("args", nargs=count, help="step sets, e.g. 1246 3568")
        if name == "quotient":
            p.add_argument("--pair", required=True, help="good pair values u,l")

    matroid = groups.add_parser(
        "matroid", help="matroid operations on JSON documents"
    ).add_subparsers(dest="action", required=True)
    for name, count in (
        ("validate", 1), ("circuits", 1), ("flats", 1),
        ("quotient-check", 2), ("from-matrix", 1),
    ):
        p = action_parser(matroid, "matroid", name, _cmd_matroid)
        p.add_argument("docs", nargs=count, help="JSON text, @file, or - for stdin")
        if name == "quotient-check":
            p.add_argument("--criterion", choices=("1", "2", "3", "all"), default="all")

    flag = groups.add_parser("flag", help="flag matroid operations").add_subparsers(
        dest="action", required=True
    )
    for name, count in (("interval", 1), ("polytope", 1), ("of-interval", 2)):
        p = action_parser(flag, "flag", name, _cmd_flag)
        p.add_argument("args", nargs=count)

    split = groups.add_parser("split", help="hyperplane split checks").add_subparsers(
        dest="action", required=True
    )
    for name in ("check", "scan", "theorem", "dual"):
        p = action_parser(split, "split", name, _cmd_split)
        p.add_argument("-n", type=int, required=True)
        if name in ("check", "dual"):
            p.add_argument("hyperplane", help='e.g. "x1+x2=5" or "x_{1,3}=7"')

    poset = groups.add_parser(
        "poset", help="refinement poset of subdivisions"
    ).add_subparsers(dest="action", required=True)
    for name in ("build", "export"):
        p = action_parser(poset, "poset", name, _cmd_poset)
        p.add_argument("-n", type=int, required=True)

    p = groups.add_parser("verify", help="run the verification checks for one n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser, leaves


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, leaves = _parsers()
    leaf = leaves.get(tuple(argv[:2]))
    try:
        if leaf is not None:
            args, extras = leaf.parse_known_args(argv[2:])
            args.command = argv[0]
        if leaf is None or extras:  # the tree reports extras, as prog permsplit
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
