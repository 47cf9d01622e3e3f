"""Command-line interface.

Exit codes: 0 success, 1 domain errors, 2 usage errors, 3 a broken internal
invariant (``errors.InvariantError``, a fault of the program, not of the
input).  ``--format json`` gives machine output everywhere; the default is
an aligned table, and ``poset`` also writes Graphviz DOT with ``--format dot``.

Each leaf (command, action) has one handler.  A handler computes its answer
once and returns it in both forms, ``(payload, rows)``: the JSON object and
the table rows, built from the same rendered texts.  Once ``main`` has
parsed a request, ``_run`` writes the answer with ``_emit`` in the requested
format; ``poset``'s rows are its DOT lines, and only ``verify`` writes its
own report and returns its exit code.

``build_parser`` makes the argparse tree once per process, with a table of
its leaf parsers keyed by (command, action).  ``main`` hands the
arguments after those two words straight to that leaf parser alone; it
falls back to the whole tree when no leaf matches (help,
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
    try:  # int() also refuses more digits than sys.get_int_max_str_digits()
        if m:
            support = [int(t) for t in m.group(1).split(",")]
            level = int(m.group(3))
        elif _HYP_SUM.match(text):
            lhs, rhs = text.split("=")
            support = [int(t[1:]) for t in lhs.split("+")]
            level = int(rhs)
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"malformed hyperplane {text!r}") from None
    if len(set(support)) != len(support):
        raise UsageError(f"repeated index in {text!r}")
    bad = next((i for i in support if not 1 <= i <= n), None)
    if bad is not None:
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
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, undecodable bytes, too deep
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


def _perm_pair(texts):
    return perm_from_str(texts[0]), perm_from_str(texts[1])


def _lpm(n, upper, lower):
    """M[U, L] from the step texts of U and L."""
    return lpm_mod.lpm_new(n, _subset_from_str(upper), _subset_from_str(lower))


def _matroid(arg):
    return matroid_mod.matroid_from_json(_read_doc(arg))


def _interval_json(iv: BruhatInterval):
    return {"lo": perm_to_str(iv.lo), "hi": perm_to_str(iv.hi)}


def _size_rows(m):
    return [("rank", str(m.rank)), ("bases", str(len(m.bases)))]


def _bruhat_leq(args):
    res = bruhat_leq(*_perm_pair(args.perms))
    return {"leq": res}, [("leq", str(res).lower())]


def _bruhat_interval(args):
    u, v = _perm_pair(args.perms)
    members = interval_texts(u, v)
    return {"lo": perm_to_str(u), "hi": perm_to_str(v), "members": members}, members


def _bruhat_dual(args):
    if len(args.perms) > 2:
        raise UsageError("dual takes one permutation or an interval pair")
    if len(args.perms) == 1:
        d = perm_to_str(dual_permutation(perm_from_str(args.perms[0])))
        return {"dual": d}, [("dual", d)]
    d = _interval_json(dual_interval(BruhatInterval(*_perm_pair(args.perms))))
    return {"dual": d}, list(d.items())


def _lpm_bases(args):
    m = _lpm(args.n, *args.args)
    bases = sorted(tuple(sorted(b)) for b in lpm_mod.lpm_bases(m))
    return (
        {"lpm": lpm_mod.lpm_to_json(m), "bases": [list(b) for b in bases], "count": len(bases)},
        [",".join(map(str, b)) for b in bases],
    )


def _lpm_good_pairs(args):
    pairs = lpm_mod.good_pairs(_lpm(args.n, *args.args))
    return (
        {"pairs": [{"u": p.u, "l": p.l, "j": p.j, "i": p.i} for p in pairs]},
        [f"u={p.u} (j={p.j})  l={p.l} (i={p.i})" for p in pairs],
    )


def _lpm_quotient(args):
    m = _lpm(args.n, *args.args)
    try:
        u, l = (int(t) for t in args.pair.split(","))
    except ValueError as exc:
        raise UsageError(f"--pair needs two integers u,l, got {args.pair!r}") from exc
    q = lpm_mod.elementary_quotient(m, lpm_mod.good_pair(m, u, l))
    return {"quotient": lpm_mod.lpm_to_json(q)}, [("quotient", str(q))]


def _lpm_chain(args):
    chain = lpm_mod.quotient_chain(_lpm(args.n, *args.args[:2]), _lpm(args.n, *args.args[2:]))
    if chain is None:
        return {"chain": None}, [("chain", "none")]
    steps = [{"pair": {"u": p.u, "l": p.l}, "lpm": lpm_mod.lpm_to_json(m)} for p, m in chain]
    return (
        {"chain": steps},
        [f"remove ({p.u},{p.l}) -> {m}" for p, m in chain] or ["(equal)"],
    )


def _matroid_validate(args):
    m = _matroid(args.docs[0])
    payload = {"ok": True, "n": m.n, "rank": m.rank, "bases": len(m.bases)}
    return payload, [("ok", "true"), *_size_rows(m)]


def _matroid_circuits(args):
    circs = sorted(tuple(sorted(c)) for c in matroid_mod.circuits(_matroid(args.docs[0])))
    return (
        {"circuits": [list(c) for c in circs]},
        [",".join(map(str, c)) for c in circs] or ["(none)"],
    )


def _matroid_flats(args):
    fl = sorted((len(f), tuple(sorted(f))) for f in matroid_mod.flats(_matroid(args.docs[0])))
    return (
        {"flats": [list(f) for _, f in fl]},
        [",".join(map(str, f)) if f else "{}" for _, f in fl],
    )


def _matroid_quotient_check(args):
    m, big = _matroid(args.docs[0]), _matroid(args.docs[1])
    criteria = (1, 2, 3) if args.criterion == "all" else (int(args.criterion),)
    verdicts = {str(c): matroid_mod.is_quotient(m, big, c) for c in criteria}
    return (
        {"quotient": verdicts},
        [(f"criterion {k}", str(v).lower()) for k, v in verdicts.items()],
    )


def _matroid_from_matrix(args):
    m = matroid_mod.matroid_from_rational_matrix(_read_doc(args.docs[0]))
    return {"matroid": matroid_mod.matroid_to_json(m)}, _size_rows(m)


def _flag_interval(args):
    iv = _interval_json(lpm_mod.lpfm_interval(lpm_mod.flag_from_json(_read_doc(args.args[0]))))
    return {"interval": iv}, list(iv.items())


def _flag_polytope(args):
    pts = [point_to_json(p) for p in sorted(flag_polytope_vertices(
        lpm_mod.flag_matroids_from_json(_read_doc(args.args[0]))))]
    return {"vertices": pts}, ["(" + ", ".join(p) + ")" for p in pts]


def _flag_of_interval(args):
    matroids, verdict = lpm_mod.flag_of_interval(BruhatInterval(*_perm_pair(args.args)))
    return (
        {"constituents": [matroid_mod.matroid_to_json(m) for m in matroids], "lpfm": verdict},
        [(f"rank {m.rank}", f"{len(m.bases)} bases") for m in matroids]
        + [("lpfm", str(verdict).lower())],
    )


def _split_check(args):
    report = check_split(parse_hyperplane(args.hyperplane, args.n))
    payload, rows = {"verdict": report.verdict}, [("verdict", report.verdict)]
    if report.cells:
        cells = payload["cells"] = [_interval_json(c) for c in report.cells]
        payload["lpfm"] = list(report.lpfm)
        rows += [(f"cell({side})", f"[{c['lo']}, {c['hi']}]") for side, c in zip("ew", cells)]
        rows.append(("lpfm", f"{report.lpfm[0]}, {report.lpfm[1]}".lower()))
    face = report.offending_face
    if face is not None:
        payload["offending_face"] = {"blocks": [list(b) for b in face.blocks], "shape": face.shape}
        rows.append(("face", str(face.blocks)))
    if report.reason:
        payload["reason"] = report.reason
        rows.append(("reason", report.reason))
    return payload, rows


def _split_scan(args):
    hyps = exhaustive_scan(args.n)
    return (
        {"hyperplanes": [hyperplane_to_json(h) for h in hyps]},
        [hyperplane_text(h) for h in hyps],
    )


def _split_theorem(args):
    payload, rows = [], []
    for h in theorem_hyperplanes(args.n):
        e, w = cells = [_interval_json(c) for c in predicted_cells(h)]
        payload.append({"hyperplane": hyperplane_to_json(h), "cells": cells})
        rows.append(f"{hyperplane_text(h)}  ->  [{e['lo']},{e['hi']}] | [{w['lo']},{w['hi']}]")
    return {"hyperplanes": payload}, rows


def _split_dual(args):
    d = dual_hyperplane(parse_hyperplane(args.hyperplane, args.n))
    return {"dual": hyperplane_to_json(d)}, [("dual", hyperplane_text(d))]


def _poset_export(args):
    poset = subdivision_mod.build_poset(args.n)
    dot = subdivision_mod.export_poset(poset, "dot")
    return subdivision_mod.poset_to_json(poset), dot.splitlines()


def _poset_build(args):
    """The poset's sizes as a table, else the export in the requested format."""
    if args.format != "table":
        return _poset_export(args)
    poset = subdivision_mod.build_poset(args.n)
    return None, [
        ("elements", str(len(poset.elements))),
        ("minimal", str(len(poset.minimal_indices()))),
        ("maximal", str(len(poset.maximal_indices()))),
        ("covers", str(len(poset.covers))),
    ]


def _verify(args) -> int:
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

    def actions(command, help, *handlers):
        """Add the command's leaf parsers, one per (action, handler), each with --format."""
        group = groups.add_parser(command, help=help).add_subparsers(dest="action", required=True)
        formats = ("table", "json", "dot") if command == "poset" else ("table", "json")
        for name, func in handlers:
            p = leaves[command, name] = group.add_parser(name)
            p.set_defaults(func=func, action=name)
            p.add_argument("--format", choices=formats, default="table")
            yield name, p

    for name, p in actions(
        "bruhat", "Bruhat order operations",
        ("leq", _bruhat_leq), ("interval", _bruhat_interval), ("dual", _bruhat_dual),
    ):
        count = "+" if name == "dual" else 2
        p.add_argument("perms", nargs=count, help="e.g. 3142 or 10,3,1,2,...")

    for name, p in actions(
        "lpm", "lattice path matroid operations",
        ("bases", _lpm_bases), ("good-pairs", _lpm_good_pairs),
        ("quotient", _lpm_quotient), ("chain", _lpm_chain),
    ):
        p.add_argument("-n", type=int, required=True)
        count = 4 if name == "chain" else 2
        p.add_argument("args", nargs=count, help="step sets, e.g. 1246 3568")
        if name == "quotient":
            p.add_argument("--pair", required=True, help="good pair values u,l")

    for name, p in actions(
        "matroid", "matroid operations on JSON documents",
        ("validate", _matroid_validate), ("circuits", _matroid_circuits),
        ("flats", _matroid_flats), ("quotient-check", _matroid_quotient_check),
        ("from-matrix", _matroid_from_matrix),
    ):
        p.add_argument("docs", nargs=2 if name == "quotient-check" else 1,
                       help="JSON text, @file, or - for stdin")
        if name == "quotient-check":
            p.add_argument("--criterion", choices=("1", "2", "3", "all"), default="all")

    for name, p in actions(
        "flag", "flag matroid operations",
        ("interval", _flag_interval), ("polytope", _flag_polytope),
        ("of-interval", _flag_of_interval),
    ):
        p.add_argument("args", nargs=2 if name == "of-interval" else 1)

    for name, p in actions(
        "split", "hyperplane split checks",
        ("check", _split_check), ("scan", _split_scan),
        ("theorem", _split_theorem), ("dual", _split_dual),
    ):
        p.add_argument("-n", type=int, required=True)
        if name in ("check", "dual"):
            p.add_argument("hyperplane", help='e.g. "x1+x2=5" or "x_{1,3}=7"')

    for name, p in actions(
        "poset", "refinement poset of subdivisions",
        ("build", _poset_build), ("export", _poset_export),
    ):
        p.add_argument("-n", type=int, required=True)

    p = groups.add_parser("verify", help="run the verification checks for one n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_verify)

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
    return _run(args)


def _run(args) -> int:
    """Write the answer of a parsed request in its format; verify writes its own."""
    try:
        answer = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    if args.command == "verify":
        return answer
    _emit(*answer, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
