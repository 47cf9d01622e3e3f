"""The library names the benchmark in ``perfbench/`` reaches, checked here so
that a deletion in ``src/`` fails a test instead of a benchmark run.

The benchmark files are only read: the tracer is loaded by path, and the
child's uses of ``modules["name"].attr`` are read from its syntax tree.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(__file__).resolve().parent.parent / "src"


def load_tracer():
    # executed from its source, so no bytecode cache is written under perfbench/
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module


def child_uses() -> dict[str, set[str]]:
    """module -> the attributes child.py reads from it, through an alias or not."""
    tree = ast.parse((PERFBENCH / "child.py").read_text())

    def module_of(node):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "modules" and isinstance(node.slice, ast.Constant)):
            return node.slice.value
        return None

    aliases = {
        node.targets[0].id: module_of(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and module_of(node.value)
    }
    uses = defaultdict(set)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = module_of(node.value)
            if name is None and isinstance(node.value, ast.Name):
                name = aliases.get(node.value.id)
            if name is not None:
                uses[name].add(node.attr)
    return uses


def test_traced_names_exist():
    for module_name, names in load_tracer().TRACED.items():
        module = importlib.import_module(f"permsplit.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_child_names_exist():
    uses = child_uses()
    # set-up warms the geometry caches; the poset and queries passes, the
    # traced caches
    assert {"permutahedron_vertices", "permutahedron_edges", "faces_2d"} <= uses["polytope"]
    assert {"lpm_bases"} <= uses["lpm"] and {"circuits"} <= uses["matroid"]
    assert {"main", "build_parser"} <= uses["cli"]
    for module_name, names in uses.items():
        module = importlib.import_module(f"permsplit.{module_name}")
        for name in names:
            assert hasattr(module, name), f"{module_name}.{name}"
    for module_name, name in (("lpm", "lpm_bases"), ("matroid", "circuits")):
        cached = getattr(importlib.import_module(f"permsplit.{module_name}"), name)
        assert set(cached.cache_info()._asdict()) >= {"hits", "misses", "currsize"}
    # the poset pass lists each cell's points
    from permsplit.subdivision import SubdivisionCell

    assert callable(SubdivisionCell.points)


def test_enumerate_vertices_counter():
    # the tracer's counter takes len() of what enumerate_vertices returns
    from permsplit.polytope import enumerate_vertices, permutahedron_facets

    counter = load_tracer().COUNTERS["polytope.enumerate_vertices"]
    facets = permutahedron_facets(3)
    counts = defaultdict(int)
    counter(counts, (facets, 3), {}, enumerate_vertices(facets, 3))
    assert counts["polytope.enumerate_vertices.vertices"] == 6


def test_package_import_loads_the_child_modules():
    # the child finds its modules in sys.modules after a bare `import permsplit`;
    # only cli is imported on its own, by the queries workload
    wanted = {"lpm", "matroid", "perm", "polytope", "splits", "subdivision"}
    wanted |= set(child_uses()) - {"cli"}
    wanted |= set(load_tracer().TRACED) - {"cli"}
    script = "import sys, permsplit; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        cwd=SRC, env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout.split()
    assert {f"permsplit.{name}" for name in wanted} <= set(loaded)
