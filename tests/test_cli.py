import json
import time

import pytest

from permsplit.cli import UsageError, main, parse_hyperplane
from permsplit.perm import MAX_LATTICE_N
from permsplit.splits import MAX_SCAN_N, SplitHyperplane


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_verify_n3(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


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
    code, out, err = run(capsys, "split", "check", "-n", "9", "x1+x2=7")
    assert code == 1 and not out and "n <= 8" in err
    code, out, err = run(capsys, "poset", "build", "-n", "5")
    assert code == 1 and not out and "n <= 4" in err
    code, out, err = run(capsys, "verify", "-n", "6")
    assert code == 1 and not out and "n <= 5" in err


def test_flag_of_interval_comma_form(capsys):
    up, down = ",".join(map(str, range(1, 11))), ",".join(map(str, range(10, 0, -1)))
    code, out, _ = run(capsys, "flag", "of-interval", up, down)
    assert code == 0 and out.splitlines()[1].split() == ["rank", "2", "45", "bases"]
    assert out.splitlines()[-1].split() == ["lpfm", "true"]
    n = MAX_LATTICE_N + 1
    up, down = ",".join(map(str, range(1, n + 1))), ",".join(map(str, range(n, 0, -1)))
    code, out, err = run(capsys, "flag", "of-interval", up, down)
    assert code == 1 and not out and f"n <= {MAX_LATTICE_N}" in err


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
        ("matroid", "from-matrix", "[[1.1, 0.3], [3.3, 0.9]]"),
        ("matroid", "from-matrix", "[[true, 0], [0, 1]]"),
    ],
    ids=[
        "matroid-n-text", "matroid-n-float", "matroid-n-bool", "matroid-basis-bool",
        "matroid-basis-float", "matroid-basis-repeat", "matroid-n-negative", "interval-n",
        "interval-U", "interval-U-bool", "polytope-n", "polytope-U", "interval-flag-n-text",
        "interval-flag-n-other", "polytope-flag-n-text", "polytope-flag-n-other",
        "matrix-float", "matrix-bool",
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

