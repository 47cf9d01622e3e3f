"""One pass of a workload in a fresh interpreter.

Reads a job from stdin: {"workload", "mode": "setup" | "pass", "trace",
"requests"}.  Prints one JSON line: the set-up time and, for a pass, the
wall time, peak memory, per-request results and (traced) the spans.  The
outputs are checked by run.py, outside the timed part.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the n whose lazy geometry caches set-up warms, per workload
GEOMETRY_N = {"scan": (6,), "poset": (4,), "queries": (5, 6)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_scan(modules, job):
    start = time.perf_counter()
    result = modules["splits"].exhaustive_scan(6)
    wall = time.perf_counter() - start
    return wall, lambda: {"hyperplanes": [[sorted(h.support), h.level] for h in result]}


def run_poset(modules, job):
    start = time.perf_counter()
    poset = modules["subdivision"].build_poset(4)
    wall = time.perf_counter() - start

    def outputs():
        return {
            "export": modules["subdivision"].export_poset(poset, "json"),
            "points": [
                [["".join(map(str, z)) for z in cell.points()] for cell in element.cells]
                for element in poset.elements
            ],
        }

    return wall, outputs


def run_queries(modules, job):
    cli = modules["cli"]
    answers = []
    start = time.perf_counter()
    for argv in job["requests"]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an exception escaping cli.main is a failed request
                code, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        answers.append((code, out.getvalue(), error, latency))
    wall = time.perf_counter() - start
    return wall, lambda: {"answers": answers}


WORKLOADS = {"scan": run_scan, "poset": run_poset, "queries": run_queries}


def main() -> int:
    job = json.load(sys.stdin)
    workload = job["workload"]
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import permsplit

    if not Path(permsplit.__file__).resolve().is_relative_to(SRC):
        print(f"permsplit was imported from {permsplit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if workload == "queries":
        import permsplit.cli  # noqa: F401  (not loaded by the package itself)
    modules = {
        name[len("permsplit."):]: module
        for name, module in sys.modules.items() if name.startswith("permsplit.")
    }
    polytope = modules["polytope"]
    geometry_start = time.perf_counter()
    for n in GEOMETRY_N[workload]:
        polytope.permutahedron_vertices(n)
        polytope.permutahedron_edges(n)
        polytope.faces_2d(n)
    geometry_s = time.perf_counter() - geometry_start
    if workload == "queries":
        modules["cli"].build_parser()
    setup_s = time.perf_counter() - start

    report = {"setup_s": setup_s}
    if job["mode"] == "pass":
        if tracer is not None:
            tracer.install()
        wall, outputs = WORKLOADS[workload](modules, job)
        report["peak_rss_mb"] = peak_rss_mb()
        report["wall_s"] = wall
        if tracer is not None:
            report["trace"] = {
                "spans": [[caller, callee, *agg] for (caller, callee), agg in tracer.spans.items()],
                "layers": tracer.layer_totals(),
                "counts": dict(tracer.counts),
                "caches": {
                    "lpm.lpm_bases": modules["lpm"].lpm_bases.cache_info()._asdict(),
                    "matroid.circuits": modules["matroid"].circuits.cache_info()._asdict(),
                },
                "polytope.geometry.setup_s": geometry_s,
            }
        report["outputs"] = outputs()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
