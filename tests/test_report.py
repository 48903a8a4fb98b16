"""Report record invariants and serialization."""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from tnomial.report import IdentityReport, decimal_str, sweep


def lifted_str(value) -> str:
    """``str(value)`` with the int-to-str digit limit lifted for the call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)


def test_status_counterexample_consistency():
    with pytest.raises(ValueError):
        IdentityReport("x", "grid", (3, 3), "fails", None)
    with pytest.raises(ValueError):
        IdentityReport("x", "grid", (3, 3), "holds", {"n": 1})
    with pytest.raises(ValueError):
        IdentityReport("x", "grid", (3, 3), "maybe", None)


def test_sweep_infers_status():
    assert sweep("x", "grid", (3, 3), ("n",), [(1, 2, 2)]).holds
    failing = sweep("x", "grid", (3, 3), ("n",), [(1, 2, 3)])
    assert not failing.holds
    assert failing.status == "fails"
    assert failing == IdentityReport("x", "grid", (3, 3), "fails", {"n": 1, "lhs": 2, "rhs": 3}, checked=1)


def test_sweep_counterexample_fields():
    # location keys, then the two mismatched sides, exactly as compared
    report = sweep("some-check", "grid", (4, 2), ("n", "k"), [(4, 1, 7, 7), (4, 2, 7, 8)])
    assert report.first_counterexample == {"n": 4, "k": 2, "lhs": 7, "rhs": 8}
    assert report.checked == 2


def test_to_dict_stringifies_numbers():
    report = sweep("x", "grid", (4, 5), ("n",), [(1, 2, 3)], ("note",))
    d = report.to_dict()
    assert d["n_max"] == "4"
    assert d["k_max"] == "5"
    assert d["counterexample"] == {"n": "1", "lhs": "2", "rhs": "3"}
    assert d["notes"] == ["note"]


def test_holds_report_serializes_null_counterexample():
    d = sweep("x", "grid", (1, 1), ("n",), [(0, 1, 1)]).to_dict()
    assert d["counterexample"] is None
    assert d["status"] == "holds"


def test_vacuous_status_invariants():
    vacuous = IdentityReport("x", "grid", (0, 0), "vacuous")
    assert not vacuous.holds
    assert vacuous.to_dict()["checked"] == "0"
    with pytest.raises(ValueError):
        IdentityReport("x", "grid", (0, 0), "vacuous", checked=3)
    with pytest.raises(ValueError):
        IdentityReport("x", "grid", (0, 0), "holds", checked=0)
    with pytest.raises(ValueError):
        IdentityReport("x", "grid", (0, 0), "fails", {"n": 1}, checked=0)
    assert sweep("x", "grid", (0, 0), ("n",), []).status == "vacuous"


def test_sweep_counts_every_compared_pair():
    points = [(n, k, n * k, k * n) for n in range(3) for k in range(3)]
    report = sweep("x", "grid", (2, 2), ("n", "k"), points)
    assert report.holds
    assert report.checked == 9
    assert report.to_dict()["checked"] == "9"


def test_sweep_stops_at_first_mismatch():
    def points():
        yield 0, "a", 1, 1
        yield 1, "b", 2, 3
        raise AssertionError("sweep went past the first mismatch")

    report = sweep("x", "grid", (1, 1), ("n", "case"), points(), ("note",))
    assert report.status == "fails"
    assert report.checked == 2
    assert report.first_counterexample == {"n": 1, "case": "b", "lhs": 2, "rhs": 3}
    assert report.notes == ("note",)


def test_sweep_short_location_leaves_trailing_keys_out():
    report = sweep("x", "grid", (1, 1), ("n", "k"), [(4, "lhs", "rhs")])
    assert report.first_counterexample == {"n": 4, "lhs": "lhs", "rhs": "rhs"}


def test_sweep_over_nothing_is_vacuous():
    report = sweep("x", "grid", (0, 0), ("n",), iter(()))
    assert report.status == "vacuous"
    assert report.checked == 0
    assert not report.holds


@pytest.mark.parametrize("value", [0, -7, 10**40, Fraction(-1, 6), "p^2 + q", True])
def test_decimal_str_is_str_below_the_limit(value):
    assert decimal_str(value) == str(value)


@needs_digit_limit
@pytest.mark.parametrize(
    "value",
    [
        3**20000,
        -(10**9000),
        10**9000 + 1,
        Fraction(7**6000, 11**5000),
        Fraction(-(5**8000), 3),
    ],
    ids=["power", "negative", "inner-zeros", "fraction", "negative-fraction"],
)
def test_decimal_str_past_the_limit(value):
    assert decimal_str(value) == lifted_str(value)
    huge = sweep("x", "grid", (1, 1), ("n",), [(1, value, 0)])
    assert huge.to_dict()["counterexample"]["lhs"] == lifted_str(value)
