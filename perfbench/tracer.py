"""Per-layer spans around calls into permsplit's public functions.

The modules import each other's names (``from .perm import bruhat_leq``), so
a traced function is replaced under every module-level name that is bound to
it, in every loaded permsplit module.  A span stack charges each span's time
to its caller's children, so a layer's self time excludes wrapped children.
Spans are aggregated in memory by (caller, callee), since ``bruhat_leq``
alone opens millions of them, and handed out at the end of the pass.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from math import comb, factorial

TRACED = {
    "perm": ("bruhat_leq", "bruhat_interval"),
    "polytope": ("is_bip", "enumerate_vertices"),
    "splits": ("exhaustive_scan", "check_split"),
    "lpm": ("flag_of_interval",),
    "matroid": ("is_quotient",),
    "subdivision": ("subdivision_from_hyperplanes", "refines", "build_poset"),
    "cli": ("main",),
}


def _bruhat_interval(counts, args, kwargs, result):
    counts["perm.bruhat_interval.members"] += len(result)
    counts["perm.bruhat_interval.scanned"] += factorial(len(args[0]))


def _is_bip(counts, args, kwargs, result):
    counts["polytope.is_bip.points"] += len(args[0])


def _enumerate_vertices(counts, args, kwargs, result):
    # candidate square systems: (n - #equalities) of the inequalities at a time
    constraints, n = args
    equalities = {c.support for c in constraints if c.sense == "="}
    inequalities = sum(1 for c in constraints if c.sense != "=")
    counts["polytope.enumerate_vertices.systems"] += comb(inequalities, n - len(equalities))
    counts["polytope.enumerate_vertices.vertices"] += len(result)


def _exhaustive_scan(counts, args, kwargs, result):
    # every (support, level) strictly inside the range of x_S, as the paper sweeps
    n = args[0]
    half = kwargs.get("include_half_levels", args[1] if len(args) > 1 else False)
    for size in range(1, n):
        lo, hi = size * (size + 1) // 2, sum(range(n - size + 1, n + 1))
        levels = (hi - lo - 1) + ((hi - lo) if half else 0)
        counts["splits.exhaustive_scan.candidates"] += comb(n, size) * levels
    counts["splits.exhaustive_scan.good"] += len(result)


def _check_split(counts, args, kwargs, result):
    counts["splits.check_split.good"] += result.verdict == "good-split"


def _subdivision(counts, args, kwargs, result):
    outcome = "rejected" if hasattr(result, "reason") else "accepted"
    counts[f"subdivision.subdivision_from_hyperplanes.{outcome}"] += 1


COUNTERS = {
    "perm.bruhat_interval": _bruhat_interval,
    "polytope.is_bip": _is_bip,
    "polytope.enumerate_vertices": _enumerate_vertices,
    "splits.exhaustive_scan": _exhaustive_scan,
    "splits.check_split": _check_split,
    "subdivision.subdivision_from_hyperplanes": _subdivision,
}


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # (caller, callee) -> [calls, total_s, self_s]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, time spent in wrapped children]

    def install(self) -> None:
        """Wrap every traced function under each name bound to it."""
        wrappers = {}
        for module_name, names in TRACED.items():
            module = sys.modules.get(f"permsplit.{module_name}")
            if module is None:  # cli is loaded only by the queries workload
                continue
            for name in names:
                label = f"{module_name}.{name}"
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(label, original, COUNTERS.get(label)))
        for module_name, module in list(sys.modules.items()):
            if module_name != "permsplit" and not module_name.startswith("permsplit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def _wrap(self, label, fn, counter):
        stack, spans, counts, clock = self._stack, self.spans, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            stack.append([label, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                _, child = stack.pop()
                key = (stack[-1][0] if stack else "", label)
                span = spans.get(key)
                if span is None:
                    span = spans[key] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - child
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls and self time per traced function, summed over callers."""
        out: dict[str, dict[str, float]] = {}
        for (_, label), (calls, _, self_s) in self.spans.items():
            agg = out.setdefault(label, {"calls": 0, "self_s": 0.0})
            agg["calls"] += calls
            agg["self_s"] += self_s
        return out

