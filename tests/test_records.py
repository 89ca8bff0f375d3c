"""The immutable records are named tuples, and ``SuiteResult`` a slotted class.

Each record must hash as the tuple of its fields (so set and dict orders,
and with them every record and digest, stay as they were), compare equal
to an equal record, refuse assignment and keep its repr.  Importing the
command line must not load ``dataclasses``.
"""

from fractions import Fraction

import pytest

from hdindex.diagram import Dart, Region, Violation
from hdindex.domains import Domain, Generator
from hdindex.formulas import IndexReport
from hdindex.harness import SuiteResult
from support import run_python

DART = Dart("v1", "a1", True)

# (a record, a second one built from the same values, its field names, its repr)
RECORDS = [
    (DART, lambda: Dart("v1", "a1", True), ("vertex", "curve", "forward"), "v1>a1"),
    (
        Region(0, (DART, Dart("v2", "b1", False))),
        lambda: Region(0, (Dart("v1", "a1", True), Dart("v2", "b1", False))),
        ("index", "darts"),
        "Region(index=0, darts=(v1>a1, v2<b1))",
    ),
    (
        Violation("genus-mismatch", "traced genus 1 != curve count 2"),
        lambda: Violation("genus-mismatch", "traced genus 1 != curve count 2"),
        ("code", "message"),
        "Violation(code='genus-mismatch', message='traced genus 1 != curve count 2')",
    ),
    (Domain((1, 0, 2)), lambda: Domain((1, 0, 2)), ("coeffs",), "Domain(coeffs=(1, 0, 2))"),
    (
        Generator(("x1", "y2")),
        lambda: Generator(("x1", "y2")),
        ("points",),
        "Generator(points=('x1', 'y2'))",
    ),
    (
        IndexReport(2, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(3, 2), 1),
        lambda: IndexReport(2, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(3, 2), 1),
        ("g", "e", "n_x", "n_y", "mu", "chi_emb"),
        "IndexReport(g=2, e=Fraction(1, 2), n_x=Fraction(1, 4), n_y=Fraction(3, 4), "
        "mu=Fraction(3, 2), chi_emb=1)",
    ),
]


@pytest.mark.parametrize(
    "record, again, fields, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
)
def test_record_hash_eq_immutability_and_repr(record, again, fields, text):
    values = tuple(getattr(record, f) for f in fields)
    assert hash(record) == hash(values)
    assert record == again() and hash(record) == hash(again())
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(record, f, None)
    assert getattr(record, fields[0]) == values[0]
    assert repr(record) == text


def test_records_of_different_values_differ():
    assert Dart("v1", "a1", True) != Dart("v1", "a1", False)
    assert Domain((1, 0)) != Domain((0, 1))
    assert len({Generator(("x",)), Generator(("x",)), Generator(("y",))}) == 2


def test_domain_region_access_and_arithmetic():
    a, b = Domain((1, 0, 2)), Domain((0, 3, -1))
    assert [a[i] for i in range(3)] == [1, 0, 2]
    assert a + b == Domain((1, 3, 1))
    assert 3 * a == a * 3 == Domain((3, 0, 6))
    assert isinstance(a + b, Domain) and isinstance(3 * a, Domain) and isinstance(a * 3, Domain)
    assert sum([a, b], Domain((0, 0, 0))) == Domain((1, 3, 1))
    with pytest.raises(ValueError):
        a + Domain((1, 2))


def test_suite_result_keyword_constructor():
    bare = SuiteResult("s")
    assert (bare.suite, bare.cases, bare.failures, bare.elapsed) == ("s", 0, [], 0.0)
    assert bare.ok and bare.failures is not SuiteResult("t").failures
    full = SuiteResult(suite="u", cases=2)
    assert (full.suite, full.cases, full.failures, full.elapsed) == ("u", 2, [], 0.0)
    full.failures.append({"case": 1})
    assert not full.ok
    full.elapsed, full.suite = 0.25, "u[x]"
    full.cases += 1
    assert full.as_dict() == {
        "suite": "u[x]", "cases": 3, "failures": [{"case": 1}], "elapsed": 0.25, "ok": False
    }
    with pytest.raises(AttributeError):
        full.extra = 1


def test_cli_import_leaves_dataclasses_out():
    code = "import sys, hdindex.cli; print('dataclasses' in sys.modules)"
    out = run_python(code)
    assert out.stdout.strip() == "False"
