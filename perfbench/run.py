"""permsplit benchmark: scan, poset and queries, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Runs passes of the workload for about --seconds seconds, checks every pass's
outputs against oracle.py, and prints one JSON line: {"correct",
"attempted", "failed", "metrics"}.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 untraced and traced passes alternate and the
metrics are the per-layer ones.  Exit code 0 when every output is correct, 1
when one is not, 2 when the benchmark cannot run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle as O
import queries

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
FIXTURE = ROOT / "fixtures" / "l4_poset.json"
DECLARED = ROOT / "BENCHMARK.json"  # names and units of the metrics printed

# Set-up-only processes in an untraced run: this many before each pass, then
# more at the end until the run has SETUP_SAMPLES_MIN set-up times in all,
# counting each pass's own.  Spreading them over the run averages the
# machine's slow drifts in speed.
SETUP_SAMPLES_PER_PASS = 2
SETUP_SAMPLES_MIN = 9
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run."""


# --- checks of each workload's outputs -------------------------------------------


def check_scan(outputs, plan):
    got = [(tuple(s), level) for s, level in outputs["hyperplanes"]]
    want = O.split_hyperplanes(6)
    if got != want:
        return [f"scan(6) gave {got}, the closed forms give {want}"], 0
    return [], 0


def check_poset(outputs, plan):
    text = outputs["export"]
    problems = []
    if text != FIXTURE.read_text(encoding="utf-8"):
        problems.append(f"poset export differs from {FIXTURE.relative_to(ROOT)}")
    doc = json.loads(text)
    n = doc["n"]
    oracle = O.bruhat(n)
    everything = frozenset(oracle.all_perms())
    cell_sets = []
    for idx, (element, points) in enumerate(zip(doc["elements"], outputs["points"], strict=True)):
        hyps = [(tuple(h["S"]), h["alpha"]) for h in element["hyperplanes"]]
        sets = []
        for cell, pts in zip(element["cells"], points, strict=True):
            lo, hi = O.perm_of(cell["lo"]), O.perm_of(cell["hi"])
            members = oracle.interval(lo, hi)
            if pts != [O.perm_text(z) for z in members]:
                problems.append(f"element {idx}: cell [{cell['lo']}, {cell['hi']}] points differ")
            for (support, alpha), sign in zip(hyps, cell["signs"], strict=True):
                if not all(
                    (O.x_sum(z, support) <= alpha) if sign == "-" else (O.x_sum(z, support) >= alpha)
                    for z in members
                ):
                    problems.append(f"element {idx}: cell {cell['signs']} leaves its side")
            sets.append(frozenset(members))
        if frozenset().union(*sets) != everything:
            problems.append(f"element {idx}: cells do not cover S_{n}")
        cell_sets.append(sets)

    # j refines i when every cell of j lies in a cell of i; covers reduce that
    count = len(cell_sets)
    finer = {
        (i, j)
        for i in range(count) for j in range(count)
        if i != j and all(any(c <= d for d in cell_sets[i]) for c in cell_sets[j])
    }
    reduction = sorted(
        (i, j) for i, j in finer if not any((i, k) in finer and (k, j) in finer for k in range(count))
    )
    if sorted(tuple(c) for c in doc["covers"]) != reduction:
        problems.append("covers are not the transitive reduction of cell containment")
    above = {j for _, j in doc["covers"]}
    minimal = [doc["elements"][i]["hyperplanes"] for i in range(count) if i not in above]
    singles = sorted((tuple(h["S"]), h["alpha"]) for hs in minimal if len(hs) == 1 for h in hs)
    if len(singles) != len(minimal) or singles != sorted(O.split_hyperplanes(n)):
        problems.append(f"minimal elements {minimal} are not the single closed-form hyperplanes")
    return problems, 0


def check_queries(outputs, plan):
    return queries.check(plan, outputs["answers"])


WORKLOADS = {
    # name: (plan from the seed, check, operations per pass)
    "scan": (lambda seed: None, check_scan, lambda plan: 1),
    "poset": (lambda seed: None, check_poset, lambda plan: 1),
    "queries": (queries.generate, check_queries, len),
}

# (traced function, metric suffixes) for calls and self time
LAYER_TIMES = (
    ("perm.bruhat_leq", ("calls", "self_s")),
    ("perm.bruhat_interval", ("calls", "self_s")),
    ("polytope.is_bip", ("calls", "self_s")),
    ("polytope.enumerate_vertices", ("calls", "self_s")),
    ("splits.exhaustive_scan", ("self_s",)),
    ("splits.check_split", ("calls", "self_s")),
    ("lpm.flag_of_interval", ("calls", "self_s")),
    ("matroid.is_quotient", ("calls", "self_s")),
    ("subdivision.subdivision_from_hyperplanes", ("calls", "self_s")),
    ("subdivision.refines", ("calls", "self_s")),
    ("subdivision.build_poset", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)


# --- running passes ------------------------------------------------------------


def spawn(job: dict) -> dict:
    """Run child.py on one job in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env.pop("PERMSPLIT_THREADS", None)  # the scan's default, sequential path
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports bytecode, as an installed package does
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")  # kept out of src/
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(job), capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a {job['workload']} pass ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ratios of nothing read 0."""
    trace = report["trace"]
    layers, counts = trace["layers"], trace["counts"]
    out = {}
    for name, fields in LAYER_TIMES:
        agg = layers.get(name, {"calls": 0, "self_s": 0.0})
        for field in fields:
            out[f"{name}.{field}"] = agg[field]
    out["perm.bruhat_interval.members_per_scanned"] = ratio(
        counts.get("perm.bruhat_interval.members", 0), counts.get("perm.bruhat_interval.scanned", 0)
    )
    out["polytope.is_bip.points"] = counts.get("polytope.is_bip.points", 0)
    out["polytope.enumerate_vertices.systems"] = counts.get("polytope.enumerate_vertices.systems", 0)
    out["polytope.enumerate_vertices.vertices_per_system"] = ratio(
        counts.get("polytope.enumerate_vertices.vertices", 0),
        counts.get("polytope.enumerate_vertices.systems", 0),
    )
    out["polytope.geometry.setup_s"] = trace["polytope.geometry.setup_s"]
    out["splits.exhaustive_scan.candidates"] = counts.get("splits.exhaustive_scan.candidates", 0)
    out["splits.exhaustive_scan.good"] = counts.get("splits.exhaustive_scan.good", 0)
    out["splits.check_split.good_ratio"] = ratio(
        counts.get("splits.check_split.good", 0), out["splits.check_split.calls"]
    )
    for cache, info in trace["caches"].items():
        out[f"{cache}.hit_ratio"] = ratio(info["hits"], info["hits"] + info["misses"])
    for outcome in ("accepted", "rejected"):
        name = f"subdivision.subdivision_from_hyperplanes.{outcome}"
        out[name] = counts.get(name, 0)
    out["cli.stdout_bytes"] = sum(len(a[1]) for a in report["outputs"].get("answers", ()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [
        p for p in (ROOT / "src" / "permsplit" / "__init__.py", FIXTURE, DECLARED) if not p.is_file()
    ]
    if missing:
        print(f"benchmark needs {', '.join(map(str, missing))}: run it from a permsplit checkout",
              file=sys.stderr)
        return 2
    make_plan, check, operations = WORKLOADS[args.workload]
    plan = make_plan(args.seed)
    requests = [r["argv"] for r in plan] if plan else None
    job = {"workload": args.workload, "requests": requests}
    traced_run = bool(args.trace)

    setup_job = {**job, "mode": "setup", "trace": False}
    try:
        start = time.perf_counter()
        spawn(setup_job)  # warm-up: bytecode and file cache
        setups, passes, problems, attempted, failed, longest = [], [], [], 0, 0, 0.0
        while True:
            traced = traced_run and len(passes) % 2 == 1
            began = time.perf_counter()
            if not traced_run:
                setups += [spawn(setup_job)["setup_s"] for _ in range(SETUP_SAMPLES_PER_PASS)]
            report = spawn({**job, "mode": "pass", "trace": traced})
            found, failures = check(report["outputs"], plan)
            problems += found
            attempted += operations(plan)
            failed += failures
            report["traced"] = traced
            passes.append(report)
            longest = max(longest, time.perf_counter() - began)
            enough = len(passes) >= (2 if traced_run else 1)
            if enough and time.perf_counter() - start + longest > args.seconds:
                break
        if not traced_run:
            while len(setups) + len(passes) < SETUP_SAMPLES_MIN:
                setups.append(spawn(setup_job)["setup_s"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    plain = [p for p in passes if not p["traced"]]
    if traced_run:
        traced = [p for p in passes if p["traced"]]
        per_pass = [layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
        )
    else:
        if requests:
            latencies = [a[3] * 1000 for p in plain for a in p["outputs"]["answers"]]
        else:
            latencies = [p["wall_s"] * 1000 for p in plain]  # one question per pass
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "query_p50_ms": statistics.median(latencies),
            "query_p90_ms": p90(latencies),
        }
    declared = json.loads(DECLARED.read_text(encoding="utf-8"))["per_layer" if traced_run else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(values):
        print(f"metrics {sorted(values)} differ from those in {DECLARED.name}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    OUT.mkdir(exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_samples_s": setups, "problems": problems,
        "passes": [
            {k: v for k, v in p.items() if k != "outputs"} for p in passes
        ],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8"
    )
    for problem in problems:
        print(f"WRONG OUTPUT: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


if __name__ == "__main__":
    sys.exit(main())
