"""The library's records: named tuples (one tuple subclass, VertexEnumeration),
built by keyword or position, immutable, equal and hashed by their fields, and
none of them costs a process the import of ``dataclasses``."""

import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from permsplit.errors import DomainError
from permsplit.lpm import GoodPair, LatticePathMatroid, LPFMFlag, lpm_new, uniform_lpm
from permsplit.matroid import SetMatroid
from permsplit.perm import BruhatInterval, _proved_interval, identity, longest
from permsplit.polytope import Face2D, LinearConstraint, VertexEnumeration
from permsplit.splits import SplitHyperplane, SplitReport, _canonical
from permsplit.subdivision import (
    Subdivision,
    SubdivisionCell,
    SubdivisionPoset,
    SubdivisionRejection,
)
from permsplit.verify import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"

_IV = BruhatInterval(lo=(1, 2, 3), hi=(2, 3, 1))
_H = SplitHyperplane(n=3, support=frozenset({1}), level=2)
_CELL = SubdivisionCell(signs="-", interval=_IV, lpfm=True)

# every record of the library, with field values it keeps as they are, in field order
RECORDS = [
    (BruhatInterval, dict(lo=(1, 2, 3), hi=(2, 3, 1))),
    (LinearConstraint, dict(support=frozenset({1, 2}), sense="<=", level=Fraction(9, 2))),
    (Face2D, dict(blocks=((1, 2, 3),), shape="hexagon", lo=(1, 2, 3), hi=(3, 2, 1))),
    (VertexEnumeration, dict(points=((1, 2), (2, 1)))),
    (LatticePathMatroid, dict(n=4, k=2, U=(1, 2), L=(3, 4))),
    (GoodPair, dict(u=2, l=3, j=2, i=1)),
    (LPFMFlag, dict(n=2, constituents=(lpm_new(2, (1,), (2,)), uniform_lpm(2, 2)))),
    (SetMatroid, dict(n=3, bases=frozenset({frozenset({1, 2}), frozenset({1, 3})}), rank=2)),
    (CheckResult, dict(name="l3-poset", passed=True, detail="2 elements")),
    (SplitHyperplane, dict(n=4, support=frozenset({1, 2}), level=4)),
    (SplitReport, dict(verdict="good-split", cells=(_IV, _IV), offending_face=None,
                       lpfm=(True, True), reason=None)),
    (SubdivisionCell, dict(signs="-", interval=_IV, lpfm=True)),
    (Subdivision, dict(n=3, hyperplanes=(_H,), cells=(_CELL,))),
    (SubdivisionRejection, dict(n=3, hyperplanes=(_H,), reason="new-vertex", signs="-",
                                witness=(1, Fraction(5, 2), Fraction(5, 2)))),
    (SubdivisionPoset, dict(n=3, elements=(), leq=frozenset({(0, 0)}), covers=())),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert type(by_keyword) is type(by_position) is cls
    assert by_keyword == by_position and hash(by_keyword) == hash(by_position)
    assert by_keyword is not by_position
    assert {name: getattr(by_keyword, name) for name in fields} == fields
    assert getattr(cls, "_fields", tuple(fields)) == tuple(fields)
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(by_keyword, first, fields[first])
    with pytest.raises(AttributeError):
        by_keyword.extra = None
    assert getattr(by_keyword, first) == fields[first]


def test_split_report_defaults():
    assert SplitReport("not-a-split", reason="r") == SplitReport(
        verdict="not-a-split", cells=None, offending_face=None, lpfm=None, reason="r")


def test_vertex_enumeration_is_its_points():
    enum = VertexEnumeration([(2, 1), (1, 2)])
    assert enum.points is enum and len(enum) == 2 and (2, 1) in enum
    assert list(enum) == [(2, 1), (1, 2)]
    assert not VertexEnumeration() and VertexEnumeration().points == ()


def test_bruhat_interval_checks_its_order():
    lo, hi = (1, 3, 2), (2, 1, 3)  # both of length 1: incomparable
    with pytest.raises(DomainError):
        BruhatInterval(lo, hi)
    with pytest.raises(DomainError):
        BruhatInterval(lo=longest(3), hi=identity(3))
    unchecked = _proved_interval(lo, hi)  # the caller's proof is trusted
    assert type(unchecked) is BruhatInterval and (unchecked.lo, unchecked.hi) == (lo, hi)
    for lo, hi in [(identity(4), longest(4)), ((1, 3, 2, 4), (3, 1, 4, 2))]:
        proved = _proved_interval(lo, hi)
        assert proved == BruhatInterval(lo, hi) and hash(proved) == hash(BruhatInterval(lo, hi))
        assert type(proved) is BruhatInterval and proved.n == 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_hyperplane_keeps_the_canonical_side(n):
    full, total = frozenset(range(1, n + 1)), n * (n + 1) // 2
    for size in range(1, n):
        for s in map(frozenset, combinations(full, size)):
            for level in range(size * (size + 1) // 2, sum(range(n - size + 1, n + 1)) + 1):
                h = SplitHyperplane(n=n, support=s, level=level)
                assert _canonical(n, h.support) and type(h.level) is int
                assert h == SplitHyperplane(n, full - s, total - level)
                assert (h.support, h.level) == ((s, level) if _canonical(n, s)
                                                else (full - s, total - level))


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site: what importing the library costs every CLI process
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import permsplit, permsplit.cli, permsplit.verify; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
