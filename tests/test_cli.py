import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permsplit import matroid
from permsplit.cli import UsageError, _emit, _run, build_parser, main, parse_hyperplane
from permsplit.errors import _json_text
from permsplit.lpm import MAX_BASES, MAX_CHAIN_N
from permsplit.perm import MAX_LATTICE_N, bruhat_interval, identity, longest, perm_to_str
from permsplit.splits import MAX_SCAN_N, SplitHyperplane, hyperplane_to_json, theorem_hyperplanes
from test_subdivision import drop_first_cell


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_traced(capsys, *argv):
    """``run``, and the peak of the memory that Python allocated meanwhile, in bytes."""
    build_parser()  # made once per process; not part of any request
    tracemalloc.start()
    try:
        result = run(capsys, *argv)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# an n whose ground set [n] takes about 300 MB to build, and one that cannot be built
HUGE_N = (3_000_000, 10**12)
HUGE = HUGE_N[0]


def _huge_flag(n, *steps):
    return json.dumps({"n": n, "constituents": [{"n": n, "U": s, "L": s} for s in steps]})


def test_parse_hyperplane():
    assert parse_hyperplane("x1+x2=4", 4) == SplitHyperplane(
        n=4, support=frozenset({1, 2}), level=4
    )
    assert parse_hyperplane("x_{1,3}=7", 5) == SplitHyperplane(
        n=5, support=frozenset({1, 3}), level=7
    )
    with pytest.raises(UsageError):
        parse_hyperplane("x9=2", 4)
    with pytest.raises(UsageError):
        parse_hyperplane("x1_x2=4", 4)
    with pytest.raises(UsageError):
        parse_hyperplane("x1=99", 4)


def test_bruhat_commands(capsys):
    code, out, _ = run(capsys, "bruhat", "leq", "1324", "3412", "--format", "json")
    assert code == 0 and json.loads(out) == {"leq": True}
    code, out, _ = run(capsys, "bruhat", "interval", "1324", "3412", "--format", "json")
    assert code == 0 and len(json.loads(out)["members"]) == 10
    code, out, _ = run(capsys, "bruhat", "dual", "316542", "--format", "json")
    assert code == 0 and json.loads(out) == {"dual": "461235"}
    code, out, _ = run(capsys, "bruhat", "dual", "132456", "654321", "--format", "json")
    assert json.loads(out) == {"dual": {"lo": "123456", "hi": "645321"}}


def test_bruhat_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "bruhat", "interval", "3412", "1324")
    assert code == 1 and "error" in err


def test_lpm_commands(capsys):
    code, out, _ = run(capsys, "lpm", "bases", "-n", "8", "1246", "3568", "--format", "json")
    assert code == 0 and json.loads(out)["count"] == 45
    code, out, _ = run(capsys, "lpm", "good-pairs", "-n", "8", "1247", "3568", "--format", "json")
    pairs = json.loads(out)["pairs"]
    assert {(p["u"], p["l"]) for p in pairs if p["u"] == 4} == {(4, 3), (4, 5), (4, 6)}
    code, out, _ = run(
        capsys, "lpm", "quotient", "-n", "8", "1247", "3568", "--pair", "4,5",
        "--format", "json",
    )
    assert json.loads(out)["quotient"] == {"n": 8, "U": [1, 2, 7], "L": [3, 6, 8]}
    code, out, _ = run(
        capsys, "lpm", "chain", "-n", "8", "12", "38", "1247", "3568", "--format", "json"
    )
    steps = json.loads(out)["chain"]
    assert [(s["pair"]["u"], s["pair"]["l"]) for s in steps] == [(4, 5), (7, 6)]


def test_matroid_commands(capsys):
    doc = json.dumps({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]})
    code, out, _ = run(capsys, "matroid", "validate", doc, "--format", "json")
    assert code == 0 and json.loads(out)["rank"] == 2
    code, out, _ = run(capsys, "matroid", "circuits", doc, "--format", "json")
    assert json.loads(out) == {"circuits": [[1, 2, 3]]}
    bad = json.dumps({"n": 4, "bases": [[1, 2], [3, 4]]})
    code, _, err = run(capsys, "matroid", "validate", bad)
    assert code == 1 and "exchange" in err
    m_doc = json.dumps({"n": 3, "bases": [[1], [3]]})
    n_doc = json.dumps({"n": 3, "bases": [[1, 2], [2, 3]]})
    code, out, _ = run(capsys, "matroid", "quotient-check", m_doc, n_doc, "--format", "json")
    assert json.loads(out)["quotient"] == {"1": True, "2": True, "3": True}
    matrix = json.dumps([["1", "0", "1"], ["0", "1", "1"]])
    code, out, _ = run(capsys, "matroid", "from-matrix", matrix, "--format", "json")
    assert json.loads(out)["matroid"] == {"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]}


@pytest.mark.parametrize("matrix", ['[["1","0","1"],["0","1","1"]]', '[["1/0"]]'])
def test_from_matrix_reads_its_matrix_once(capsys, monkeypatch, matrix):
    calls = []
    read = matroid.matrix_from_json
    monkeypatch.setattr(matroid, "matrix_from_json", lambda rows: calls.append(rows) or read(rows))
    run(capsys, "matroid", "from-matrix", matrix)
    assert len(calls) == 1


def test_flag_commands(capsys):
    flag = json.dumps(
        {
            "n": 4,
            "constituents": [
                {"n": 4, "U": [2], "L": [4]},
                {"n": 4, "U": [1, 2], "L": [2, 4]},
                {"n": 4, "U": [1, 2, 4], "L": [2, 3, 4]},
            ],
        }
    )
    code, out, _ = run(capsys, "flag", "interval", flag, "--format", "json")
    assert code == 0 and json.loads(out) == {"interval": {"lo": "1324", "hi": "3412"}}
    code, out, _ = run(capsys, "flag", "polytope", flag, "--format", "json")
    assert len(json.loads(out)["vertices"]) == 10
    code, out, _ = run(capsys, "flag", "of-interval", "1234", "2431", "--format", "json")
    got = json.loads(out)
    assert got["lpfm"] is True and len(got["constituents"]) == 4
    # constituents may also be given by explicit bases
    segment = json.dumps(
        {
            "n": 3,
            "constituents": [
                {"n": 3, "bases": [[1], [3]]},
                {"n": 3, "bases": [[1, 2], [2, 3]]},
                {"n": 3, "bases": [[1, 2, 3]]},
            ],
        }
    )
    code, out, _ = run(capsys, "flag", "polytope", segment, "--format", "json")
    assert json.loads(out)["vertices"] == [["1", "2", "3"], ["3", "2", "1"]]


def test_split_commands(capsys):
    code, out, _ = run(capsys, "split", "check", "-n", "4", "x1+x2=5", "--format", "json")
    assert code == 0 and json.loads(out)["verdict"] == "bad-square"
    code, out, _ = run(capsys, "split", "scan", "-n", "4", "--format", "json")
    assert len(json.loads(out)["hyperplanes"]) == 6
    code, out, _ = run(capsys, "split", "theorem", "-n", "3", "--format", "json")
    assert len(json.loads(out)["hyperplanes"]) == 2
    code, out, _ = run(capsys, "split", "dual", "-n", "4", "x1+x2=4", "--format", "json")
    assert json.loads(out) == {"dual": {"S": [1, 2], "alpha": 6}}
    code, _, err = run(capsys, "split", "check", "-n", "4", "x9=2")
    assert code == 2


def test_split_dual_at_large_n(capsys):
    # the prefix-low level of x1+...+x60 at n=120 and its prefix-high dual,
    # read from the closed-form verdict with no table over the levels
    prefix = "+".join(f"x{i}" for i in range(1, 61))
    start = time.perf_counter()
    code, out, _ = run(capsys, "split", "dual", "-n", "120", f"{prefix}=1831", "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out) == {"dual": {"S": list(range(1, 61)), "alpha": 5429}}


def test_poset_commands(capsys):
    code, out, _ = run(capsys, "poset", "build", "-n", "3")
    assert code == 0
    assert "elements  2" in out
    code, out, _ = run(capsys, "poset", "export", "-n", "3", "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    code, out, _ = run(capsys, "poset", "export", "-n", "3", "--format", "json")
    assert len(json.loads(out)["elements"]) == 2


def test_outputs_deterministic(capsys):
    first = run(capsys, "split", "scan", "-n", "4", "--format", "json")
    second = run(capsys, "split", "scan", "-n", "4", "--format", "json")
    assert first == second
    a = run(capsys, "poset", "export", "-n", "3", "--format", "json")
    b = run(capsys, "poset", "export", "-n", "3", "--format", "json")
    assert a == b
    # the parser is built once per process: a json call and a usage error in
    # between must not change what the same table call prints
    table = run(capsys, "bruhat", "interval", "1324", "3412")
    assert table[0] == 0
    assert run(capsys, "bruhat", "interval", "1324", "3412", "--format", "json")[0] == 0
    assert run(capsys, "bruhat", "interval", "1324")[0] == 2
    assert run(capsys, "bruhat", "interval", "1324", "3412") == table


class _Int(int):
    pass


_TEXT = st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f\x7f", "é", "😀", "\u2028", "\ud800"])
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**200) | _TEXT
    | st.floats() | st.builds(_Int, st.integers()),  # the last two take the fallback
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_TEXT, kids),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_JSON_VALUES)
def test_json_text_is_json_dumps(x):
    assert _json_text(x) == json.dumps(x, indent=2)


def test_largest_answer_matches_print_and_json_dumps(capsys):
    # all of S_8: one print per member, and json.dumps(indent=2), are the reference
    members = ["".join(map(str, p)) for p in bruhat_interval(identity(8), longest(8))]
    code, out, _ = run(capsys, "bruhat", "interval", "12345678", "87654321")
    assert code == 0 and out == "".join(m + "\n" for m in members)
    code, out, _ = run(capsys, "bruhat", "interval", "12345678", "87654321", "--format", "json")
    payload = {"lo": "12345678", "hi": "87654321", "members": members}
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"


def test_scan_at_the_frontier_matches_json_dumps(capsys):
    payload = {"hyperplanes": [hyperplane_to_json(h) for h in theorem_hyperplanes(MAX_SCAN_N)]}
    code, out, _ = run(capsys, "split", "scan", "-n", str(MAX_SCAN_N), "--format", "json")
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"


def test_an_empty_table_prints_nothing(capsys):
    _emit({}, [], "table")
    assert capsys.readouterr().out == ""


def test_verify_n3(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


VERIFY_5 = """\
PASS  bruhat-oracle[n=5]: 14400 ordered pairs compared, 0 disagreements
PASS  interval-oracle[n=5]: 200 sampled comparable pairs, 0 mismatches
PASS  flag-oracle[n=5]: 200 sampled comparable pairs, 0 mismatches
PASS  flag-positroid[n=5]: 20 cells, 100 constituents, 0 not positroids
PASS  interval-polytope-match[n=5]: 200 sampled flags, 0 mismatches
PASS  theorem-hyperplanes[n=5]: 10 hyperplanes
PASS  split-classification[n=5]: 10 good splits, 65 levels match the interval test and 55 bad \
ones the face walk
PASS  duality[n=5]: 10 good splits dualized
PASS  quotient-criteria[n=5]: 17424 pairs, 0 disagreements, 0 bad chains, 0 not matroids, 0 \
with other circuits or flats
PASS  good-pairs[n=5]: 930 removals checked, 0 mismatches
PASS  exact-kernel[n=5]: 120 vertices, 200 basis counts
11/11 checks passed (n=5, seed=0)
"""


def test_verify_n5(capsys):
    assert run(capsys, "verify", "-n", "5") == (0, VERIFY_5, "")


def test_verify_n4_fails_on_the_two_red_facts(capsys):
    code, out, err = run(capsys, "verify", "-n", "4")
    assert (code, err, out.splitlines()[-1]) == (1, "", "10/12 checks passed (n=4, seed=0)")
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  exact-kernel[n=4]: cut at x1+x2<=5 has only permutation vertices (edges change "
        "x_S by at most 1, so an integer level never crosses an edge strictly; a fractional "
        "vertex needs a non-integer level; known discrepancy, documented in the README)",
        "FAIL  l4-poset: 5 maximal elements, expected 2 (stacks of parallel hyperplanes such as "
        "x1=2 with x1=3 are genuinely maximal: every extension creates new vertices; known "
        "discrepancy, documented in the README)",
    ]


@pytest.mark.parametrize("argv", [
    ("split", "dual", "-n", "5", "x1=" + "1" * 5000),
    ("split", "check", "-n", "5", "x" + "1" * 5000 + "=2"),
    ("split", "check", "-n", "5", "x_{" + "1" * 5000 + "}=2"),
], ids=["dual level", "check index", "check set index"])
def test_oversized_hyperplane_integer_exit_code(capsys, argv):
    # more digits than int() reads from a text
    start = time.perf_counter()
    (code, out, err), peak = run_traced(capsys, *argv)
    assert time.perf_counter() - start < 1.0 and peak < 5_000_000
    assert (code, out, err) == (2, "", f"usage error: malformed hyperplane {argv[-1]!r}\n")


def test_usage_error_exit_code(capsys):
    assert main(["split", "nonsense", "-n", "4"]) == 2
    assert main([]) == 2
    # dot is a poset format only
    assert main(["bruhat", "leq", "12", "21", "--format", "dot"]) == 2
    assert main(["split", "scan", "-n", "4", "--format", "dot"]) == 2


def test_size_limits_exit_code(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "split", "scan", "-n", str(MAX_SCAN_N + 1))
    assert time.perf_counter() - start < 5  # rejected before any scanning
    assert code == 1 and not out and "Traceback" not in err
    assert f"3 <= n <= {MAX_SCAN_N}" in err
    code, out, err = run(capsys, "bruhat", "interval", "123456789", "987654321")
    assert code == 1 and not out and "n <= 8" in err
    code, out, err = run(capsys, "poset", "build", "-n", "5")
    assert code == 1 and not out and "n <= 4" in err
    code, out, err = run(capsys, "verify", "-n", "6")
    assert code == 1 and not out and "n <= 5" in err
    # verify and poset refuse n below 3 themselves, before any inner function
    for argv, text in ((("verify", "-n", "2"), "verify needs 3 <= n <= 5, got n=2"),
                       (("verify", "-n", "0"), "verify needs 3 <= n <= 5, got n=0"),
                       (("poset", "build", "-n", "2"), "build_poset needs 3 <= n <= 4, got n=2")):
        assert run(capsys, *argv) == (1, "", f"error: {text}\n")


def test_flag_of_interval_comma_form(capsys):
    up, down = ",".join(map(str, range(1, 11))), ",".join(map(str, range(10, 0, -1)))
    code, out, _ = run(capsys, "flag", "of-interval", up, down)
    assert code == 0 and out.splitlines()[1].split() == ["rank", "2", "45", "bases"]
    assert out.splitlines()[-1].split() == ["lpfm", "true"]
    n = MAX_LATTICE_N + 1
    up, down = ",".join(map(str, range(1, n + 1))), ",".join(map(str, range(n, 0, -1)))
    code, out, err = run(capsys, "flag", "of-interval", up, down)
    assert code == 1 and not out and f"n <= {MAX_LATTICE_N}" in err


# each walks all 2^n subsets, or C(40, 20) column sets, unless refused at once
LATTICE_REFUSALS = [
    ("matroid", "circuits", '{"n": 40, "bases": [[1]]}'),
    ("matroid", "flats", '{"n": 40, "bases": [[1]]}'),
    ("matroid", "quotient-check", '{"n": 40, "bases": [[1]]}', '{"n": 40, "bases": [[1]]}',
     "--criterion", "1"),
    ("matroid", "quotient-check", '{"n": 17, "bases": [[]]}', '{"n": 17, "bases": [[1]]}',
     "--criterion", "2"),
    ("matroid", "from-matrix", json.dumps([[(3 * i + j * j) % 7 for j in range(40)] for i in range(20)])),
    # and refused before [n] is built
    pytest.param(("matroid", "circuits", json.dumps({"n": HUGE, "bases": [[1]]})),
                 id=f"matroid circuits n={HUGE}"),
    pytest.param(("flag", "polytope", _huge_flag(HUGE, [1], [1, 2])), id=f"flag polytope n={HUGE}"),
    # one constituent meets no quotient test, and each of its points has n coordinates
    *(pytest.param(("flag", "polytope", _huge_flag(n, [1])), id=f"flag polytope of one n={n}")
      for n in (MAX_LATTICE_N + 1, *HUGE_N)),
]


@pytest.mark.parametrize("argv", LATTICE_REFUSALS, ids=lambda a: " ".join(a[:2]))
def test_lattice_bound_refuses_at_once(capsys, argv):
    start = time.perf_counter()
    (code, out, err), peak = run_traced(capsys, *argv)
    assert time.perf_counter() - start < 1.0 and peak < 5_000_000
    assert code == 1 and not out and "Traceback" not in err
    assert str(MAX_LATTICE_N) in err and err.startswith("error: ")


def test_lpm_chain_answers_beyond_the_lattice_bound(capsys):
    # the step-set rule needs no rank table of the 2^20 subsets
    start = time.perf_counter()
    code, out, err = run(capsys, "lpm", "chain", "-n", "20", "1,2", "19,20", "1,2,3", "18,19,20")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (0, "remove (3,18) -> M[1,2;19,20]\n", "")


def test_flag_interval_answers_beyond_the_lattice_bound(capsys):
    n = 20
    flag = {"n": n, "constituents": [
        {"n": n, "U": list(range(1, k + 1)), "L": list(range(n - k + 1, n + 1))} for k in range(1, n)
    ]}
    code, out, _ = run(capsys, "flag", "interval", json.dumps(flag), "--format", "json")
    interval = {"lo": perm_to_str(identity(n)), "hi": perm_to_str(longest(n))}
    assert code == 0 and json.loads(out) == {"interval": interval}


@pytest.mark.parametrize("argv, bound", [
    (("lpm", "chain", "-n", str(MAX_CHAIN_N + 1), "1", "1", "1", "1"), f"n <= {MAX_CHAIN_N}"),
    (("split", "theorem", "-n", str(MAX_SCAN_N + 1)), f"n <= {MAX_SCAN_N}"),
    (("split", "check", "-n", str(MAX_SCAN_N + 1), "x1+x2=5"), f"n <= {MAX_SCAN_N}"),
    # at an n whose [n] is never built
    (("split", "check", "-n", str(HUGE), "x1=2"), f"n <= {MAX_SCAN_N}, got n={HUGE}"),
    (("lpm", "chain", "-n", str(HUGE), "1", "1", "1,2", "1,2"), f"n <= {MAX_CHAIN_N}, got n={HUGE}"),
    (("flag", "interval", _huge_flag(HUGE, [1])), f"need ranks 1..{HUGE}, got [1]"),
], ids=["lpm chain", "split theorem", "split check",
        f"split check n={HUGE}", f"lpm chain n={HUGE}", f"flag interval n={HUGE}"])
def test_size_bounds_refuse_at_once(capsys, argv, bound):
    start = time.perf_counter()
    (code, out, err), peak = run_traced(capsys, *argv)
    assert time.perf_counter() - start < 1.0 and peak < 5_000_000
    assert code == 1 and not out and bound in err and err.startswith("error: ")


def _answers_at(n):
    """Requests whose answers do not grow with n, and their exact stdout."""
    answers = {
        "split dual x1=2": (("split", "dual", "-n", str(n), "x1=2"), f"dual  x1={n - 1}\n"),
        "split dual x1=n-1": (("split", "dual", "-n", str(n), f"x1={n - 1}"), "dual  x1=2\n"),
        "lpm bases": (("lpm", "bases", "-n", str(n), "1", "1"), "1\n"),
        "lpm good-pairs": (("lpm", "good-pairs", "-n", str(n), "1", "1"), "u=1 (j=1)  l=1 (i=1)\n"),
        "matroid quotient-check": (
            ("matroid", "quotient-check", *[json.dumps({"n": n, "bases": [[1]]})] * 2, "--criterion", "3"),
            "criterion 3  true\n"),
        "matroid validate": (
            ("matroid", "validate", json.dumps({"n": n, "bases": [[1]]}), "--format", "json"),
            f'{{\n  "ok": true,\n  "n": {n},\n  "rank": 1,\n  "bases": 1\n}}\n'),
    }
    return [pytest.param(*a, id=f"{name} n={n}") for name, a in answers.items()]


@pytest.mark.parametrize("argv, out", [a for n in HUGE_N for a in _answers_at(n)])
def test_answers_cost_what_their_text_costs(capsys, argv, out):
    # membership in [n] is read from the bounds 1 <= x <= n, so neither n
    # builds its ground set
    start = time.perf_counter()
    result, peak = run_traced(capsys, *argv)
    assert time.perf_counter() - start < 1.0 and peak < 5_000_000
    assert result == (0, out, "")


FAR = 10**12  # an element, and a ground set, far beyond any table over [n]
FAR_ONE = json.dumps({"n": FAR, "bases": [[FAR]]})
FAR_TWO = json.dumps({"n": FAR, "bases": [[1, FAR], [2, FAR]]})


@pytest.mark.parametrize("argv, code, out, err", [
    *[pytest.param(("matroid", "validate", json.dumps({"n": x, "bases": [[x]]})), 0,
                   "ok     true\nrank   1\nbases  1\n", "", id=f"matroid validate {{{x}}}")
      for x in (10**5, FAR)],
    # the n = 4 analogue, {4} against {1, 4} and {2, 4}, is a quotient by hand:
    # 4 is the one non-loop of the first, and 1 and 2 are parallel in the second
    pytest.param(("matroid", "quotient-check", FAR_ONE, FAR_TWO, "--criterion", "3"), 0,
                 "criterion 3  true\n", "", id="matroid quotient-check far"),
    pytest.param(("flag", "polytope", json.dumps({"n": FAR, "constituents": [json.loads(FAR_ONE)]})),
                 1, "", f"error: flag polytopes need n <= {MAX_LATTICE_N}, got n={FAR}\n",
                 id="flag polytope of one far matroid"),
])
def test_exchange_masks_follow_the_bases(capsys, argv, code, out, err):
    # exchange masks give bits only to the elements that the bases hold
    start = time.perf_counter()
    result, peak = run_traced(capsys, *argv)
    assert time.perf_counter() - start < 1.0 and peak < 5_000_000
    assert result == (code, out, err)


@pytest.mark.parametrize("form", ["text", "file", "stdin"])
def test_deep_json_exit_code(capsys, monkeypatch, tmp_path, form):
    doc = "[" * 60_000  # nested past the decoder's recursion limit
    (tmp_path / "deep.json").write_text(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    arg = {"text": doc, "file": f"@{tmp_path / 'deep.json'}", "stdin": "-"}[form]
    start = time.perf_counter()
    (code, out, err), peak = run_traced(capsys, "matroid", "validate", arg)
    assert time.perf_counter() - start < 1.0 and peak < 5_000_000
    assert (code, out) == (2, "") and err.startswith("usage error: malformed JSON: ")
    assert "Traceback" not in err


def test_bruhat_leq_cost_follows_its_text(capsys):
    n = 5_000
    e, w0 = (",".join(map(str, p)) for p in (identity(n), longest(n)))
    start = time.perf_counter()
    result, peak = run_traced(capsys, "bruhat", "leq", e, w0)
    assert time.perf_counter() - start < 1.0 and peak < 5_000_000
    assert result == (0, "leq  true\n", "")
    assert run(capsys, "bruhat", "leq", w0, e) == (0, "leq  false\n", "")


def test_lpm_bases_refuses_above_max_bases(capsys):
    # C(40, 20) bases: counted, not listed, before the refusal
    up, low = ",".join(map(str, range(1, 21))), ",".join(map(str, range(21, 41)))
    start = time.perf_counter()
    code, out, err = run(capsys, "lpm", "bases", "-n", "40", up, low)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (1, "") and err == (
        f"error: lpm_bases lists at most {MAX_BASES} bases, and M[{up};{low}] has more\n")


def test_split_check_answers_at_the_scan_bound(capsys):
    # a bad split's face is built from the lemma, a good split's cells are in
    # closed form: neither lists the 2-faces of the permutahedron
    n = MAX_SCAN_N
    code, out, err = run(capsys, "split", "check", "-n", str(n), "x1+x2=5", "--format", "json")
    doc = json.loads(out)
    assert (code, err, doc["verdict"]) == (0, "", "bad-square")
    assert doc["offending_face"]["blocks"][-2:] == [[1, n - 1], [2, n]]  # on values 3, 4 and 1, 2
    code, out, err = run(capsys, "split", "check", "-n", str(n), "x1=2")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].split() == ["verdict", "good-split"]
    assert out.splitlines()[-1].split() == ["lpfm", "true,", "true"]


def test_negative_n_exit_code(capsys):
    code, out, err = run(capsys, "lpm", "bases", "-n", "-1", "-", "-")
    assert (code, out, err) == (1, "", "error: n=-1 is negative\n")


def test_lattice_bound_admits_n_16(capsys):
    doc = json.dumps({"n": MAX_LATTICE_N, "bases": [[1, 2]]})
    code, out, _ = run(capsys, "matroid", "circuits", doc, "--format", "json")
    assert code == 0
    assert json.loads(out)["circuits"] == [[x] for x in range(3, MAX_LATTICE_N + 1)]
    code, out, _ = run(capsys, "matroid", "quotient-check", doc, doc, "--format", "json")
    assert code == 0 and json.loads(out) == {"quotient": {"1": True, "2": True, "3": True}}


@pytest.mark.parametrize("argv", [("bruhat", "dual", "1,2,"), ("bruhat", "dual", ",")])
def test_malformed_permutation_list_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out and err == f"error: malformed permutation text: {argv[-1]!r}\n"


@pytest.mark.parametrize(
    "argv, bad",
    [(("lpm", "bases", "-n", "4", "1,,2", "3,4"), "1,,2"),
     (("lpm", "bases", "-n", "12", "1,", "12,"), "1,")],
)
def test_malformed_subset_list_exit_code(capsys, argv, bad):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and err == f"usage error: malformed subset text {bad!r}\n"


def test_malformed_json_exit_code(capsys):
    code, out, err = run(capsys, "matroid", "validate", "{bad")
    assert code == 2 and not out and "malformed JSON" in err


def test_missing_file_exit_code(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "matroid", "circuits", f"@{missing}")
    assert code == 2 and not out and "cannot read" in err


def test_zero_denominator_exit_code(capsys):
    code, out, err = run(capsys, "matroid", "from-matrix", '[["1/0"]]')
    assert code == 1 and not out and "malformed matrix entry" in err


@pytest.mark.parametrize("pair", ["4", "a,b"])
def test_malformed_pair_exit_code(capsys, pair):
    code, out, err = run(capsys, "lpm", "quotient", "-n", "8", "1247", "3568", "--pair", pair)
    assert code == 2 and not out and "Traceback" not in err and "--pair" in err


# a flag on [3] that `flag interval` and `flag polytope` accept; the cases below
# change only its top-level "n"
FLAG_3 = json.dumps(
    {
        "n": 3,
        "constituents": [
            {"n": 3, "U": [1], "L": [3]},
            {"n": 3, "U": [1, 2], "L": [2, 3]},
            {"n": 3, "U": [1, 2, 3], "L": [1, 2, 3]},
        ],
    },
    separators=(",", ":"),
)
# FLAG_3 with its rank-1 constituent as a matroid document of the same bases
FLAG_3_BASES = FLAG_3.replace('{"n":3,"U":[1],"L":[3]}', '{"n":3,"bases":[[1],[2],[3]]}')


@pytest.mark.parametrize(
    "argv",
    [
        ("matroid", "validate", '{"n":"x","bases":[[1]]}'),
        ("matroid", "validate", '{"n":2.7,"bases":[[1,2]]}'),
        ("matroid", "validate", '{"n":true,"bases":[[1]]}'),
        ("matroid", "validate", '{"n":3,"bases":[[true,2]]}'),
        ("matroid", "validate", '{"n":3,"bases":[[1.0,2],[1,3]]}'),
        ("matroid", "validate", '{"n":3,"bases":[[1,1]]}'),
        ("matroid", "validate", '{"n":-1,"bases":[[]]}'),
        ("flag", "interval", '{"n":3,"constituents":[{"n":"q","U":[1],"L":[2]}]}'),
        ("flag", "interval", '{"n":3,"constituents":[{"n":3,"U":["a"],"L":[2]}]}'),
        ("flag", "interval", '{"n":3,"constituents":[{"n":3,"U":[true],"L":[2]}]}'),
        ("flag", "polytope", '{"n":3,"constituents":[{"n":"q","U":[1],"L":[2]}]}'),
        ("flag", "polytope", '{"n":3,"constituents":[{"n":3,"U":["a"],"L":[2]}]}'),
        *(("flag", command, FLAG_3.replace('"n":3', top, 1))
          for command in ("interval", "polytope") for top in ('"n":"zz"', '"n":99')),
        ("flag", "interval", FLAG_3_BASES),
        ("matroid", "from-matrix", "[[1.1, 0.3], [3.3, 0.9]]"),
        ("matroid", "from-matrix", "[[true, 0], [0, 1]]"),
    ],
    ids=[
        "matroid-n-text", "matroid-n-float", "matroid-n-bool", "matroid-basis-bool",
        "matroid-basis-float", "matroid-basis-repeat", "matroid-n-negative", "interval-n",
        "interval-U", "interval-U-bool", "polytope-n", "polytope-U", "interval-flag-n-text",
        "interval-flag-n-other", "polytope-flag-n-text", "polytope-flag-n-other",
        "interval-matroid-constituent", "matrix-float", "matrix-bool",
    ],
)
def test_malformed_json_field_exit_code(capsys, argv):
    # a field of the wrong type is a domain error, neither raised nor truncated
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out and "malformed" in err and "document" in err


@pytest.mark.parametrize("doc", ["{}", "[1]"])
def test_malformed_flag_document_exit_code(capsys, doc):
    code, out, err = run(capsys, "flag", "polytope", doc)
    assert code == 1 and not out and "Traceback" not in err
    assert "malformed flag document" in err


def test_flag_interval_names_a_matroid_constituent(capsys):
    # flag interval takes LPM constituents only; flag polytope takes both forms
    code, out, err = run(capsys, "flag", "interval", FLAG_3_BASES)
    assert code == 1 and not out
    assert "flag interval takes LPM constituents (n, U, L)" in err
    assert "constituent 1 is a matroid document" in err
    assert run(capsys, "flag", "polytope", FLAG_3_BASES) == run(capsys, "flag", "polytope", FLAG_3)



def reference_main(argv):
    """main by the whole argparse tree, the dispatch main's leaf table stands in for."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return _run(args)


_UNIFORM_2_3 = json.dumps({"n": 3, "bases": [[1, 2], [1, 3], [2, 3]]})
_FLAG_4 = json.dumps({"n": 4, "constituents": [
    {"n": 4, "U": [2], "L": [4]}, {"n": 4, "U": [1, 2], "L": [2, 4]},
    {"n": 4, "U": [1, 2, 4], "L": [2, 3, 4]},
]})
DISPATCH_CORPUS = [
    # one valid request per leaf
    ["bruhat", "leq", "1324", "3412"],
    ["bruhat", "interval", "1324", "3412"],
    ["bruhat", "dual", "316542"],
    ["lpm", "bases", "-n", "8", "1246", "3568"],
    ["lpm", "good-pairs", "-n", "8", "1247", "3568"],
    ["lpm", "quotient", "-n", "8", "1247", "3568", "--pair", "4,5"],
    ["lpm", "chain", "-n", "8", "12", "38", "1247", "3568"],
    ["matroid", "validate", _UNIFORM_2_3],
    ["matroid", "circuits", _UNIFORM_2_3],
    ["matroid", "flats", _UNIFORM_2_3],
    ["matroid", "quotient-check", '{"n": 3, "bases": [[1], [3]]}', _UNIFORM_2_3],
    ["matroid", "from-matrix", '[["1","0","1"],["0","1","1"]]'],
    ["flag", "interval", _FLAG_4],
    ["flag", "polytope", _FLAG_4],
    ["flag", "of-interval", "1234", "2431"],
    ["split", "check", "-n", "4", "x1+x2=5"],
    ["split", "scan", "-n", "4"],
    ["split", "theorem", "-n", "3"],
    ["split", "dual", "-n", "4", "x1+x2=4"],
    ["poset", "build", "-n", "3"],
    ["poset", "export", "-n", "3"],
    # help at each level, and no command
    ["-h"], ["split", "-h"], ["split", "check", "-h"], [],
    # unknown names, extras and unknown options
    ["nonsense"], ["split", "nonsense", "-n", "4"],
    ["bruhat", "leq", "12", "21", "12"], ["split", "scan", "-n", "4", "--bogus"],
    ["split", "scan"], ["bruhat", "leq", "12"],
    # option spellings
    ["split", "scan", "-n", "4", "--form", "json"],
    ["split", "scan", "-n", "4", "--format=json"],
    ["split", "scan", "-n4"],
    ["split", "check", "-n", "4", "--", "x1+x2=5"],
    ["split", "scan", "-n", "-4"],
    # options before the command or the action
    ["--format", "json", "split", "scan", "-n", "4"],
    ["split", "--format", "json", "scan", "-n", "4"],
    # errors the handlers raise
    ["split", "check", "-n", "4", "x9=2"], ["bruhat", "interval", "3412", "1324"],
    ["verify", "-n", "3"],
]


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
def test_dispatch_matches_the_tree(capsys, argv):
    want = reference_main(list(argv)), *capsys.readouterr()
    assert (main(list(argv)), *capsys.readouterr()) == want


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_every_leaf_answer_is_unchanged(capsys, monkeypatch):
    # cli_answers.json holds the exact stdout of the 21 leaf requests at the
    # head of DISPATCH_CORPUS in both forms; a valid leaf request parses with
    # its leaf parser alone, never the whole tree
    def whole_tree(*args, **kwargs):
        raise AssertionError("a valid leaf request reached the whole argparse tree")

    monkeypatch.setattr(build_parser(), "parse_args", whole_tree)
    answers = json.loads((FIXTURES / "cli_answers.json").read_text(encoding="utf-8"))
    assert [a["argv"] for a in answers] == DISPATCH_CORPUS[:21]
    for a in answers:
        for fmt in ("table", "json"):
            assert run(capsys, *a["argv"], "--format", fmt) == (0, a[fmt], ""), (a["argv"], fmt)


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, code", [
    (["bruhat", "leq", "1324", "3412"], 0),
    (["bruhat", "interval", "3412", "1324"], 1),  # not an interval of the Bruhat order
    ([], 2),
])
def test_module_reads_sys_argv(capsys, argv, code):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "permsplit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code and "Traceback" not in done.stderr
    assert done.stdout == run(capsys, *argv)[1]


def test_invariant_error_exit_code(capsys, monkeypatch):
    drop_first_cell(monkeypatch)  # the other cells do not tile S_3
    code, out, err = run(capsys, "poset", "build", "-n", "3")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: accepted cells do not tile") and "Traceback" not in err
