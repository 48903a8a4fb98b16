"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line (run with -s to see them) before asserting.

Every comparison in these sweeps is exact integer or rational equality;
nothing is sampled with a tolerance.  The whole module runs in well
under a minute.
"""

from __future__ import annotations

from collections import Counter

from test_identities import vandermonde_terms

from tnomial import suites
from tnomial.report import IdentityReport
from tnomial.sequences import SeqParams
from tnomial.suites import (
    binomial_suite,
    bipartite_oracle_suite,
    dag_oracle_suite,
    equal1_suite,
    fibonomial_suite,
    gf_suite,
    inversion_suite,
    orthogonality_suite,
    routes_suite,
    run_oracle,
    run_verify,
    selections_oracle_suite,
    specialization_suite,
    vandermonde_suite,
    verify_inverse_relation,
)


def _criterion(number: int, label: str, reports: list[IdentityReport], extra_ok: bool = True):
    ok = extra_ok and all(report.holds for report in reports)
    print(f"[acceptance] criterion {number:02d} ({label}): {'PASS' if ok else 'FAIL'}")
    failures = [report for report in reports if not report.holds]
    assert ok, f"criterion {number:02d} ({label}): " + (
        f"first counterexample {failures[0].first_counterexample}"
        if failures
        else "side condition violated"
    )


ROUTE_FLOORS = {"subset": 4459, "multiset": 4410, "product": 4195, "factorial": 4019, "partial-fractions": 2766}


def test_criterion_01_route_agreement():
    report = routes_suite(n_max=12)
    counts = Counter(point[4] for point in suites._route_points(suites.PQ_GRID, 12))
    _criterion(
        1,
        "five routes agree, p and q in [-2, 4], n <= 12, each route at least its floor of comparisons",
        [report],
        extra_ok=all(counts[route] >= floor for route, floor in ROUTE_FLOORS.items()),
    )


def test_criterion_02_generating_function_coherence():
    _criterion(2, "product expansions at order 10, n <= 8", [gf_suite(n_max=8, order=10)])


def test_criterion_03_binomial_like_symbolic():
    _criterion(3, "binomial-like expansion over Z[p, q], n <= 7", [binomial_suite(7)])


def test_criterion_04_orthogonality():
    _criterion(4, "series orthogonality, n <= 8, s <= 8", [orthogonality_suite(n_max=8)])


def test_criterion_05_vandermonde_resolution():
    report = vandermonde_suite(nm_max=5)
    documented = any("fails" in note for note in report.notes)
    frozen = vandermonde_terms(SeqParams(2, 3), 2, 2, 2) == (247, 247, 235)
    _criterion(
        5,
        "convolution holds with the corrected exponent; rejected variant documented",
        [report],
        extra_ok=documented and frozen,
    )


def test_criterion_06_unit_sum():
    _criterion(6, "partial-fraction sum equals 1, k <= 8", [equal1_suite(k_max=8)])


def test_criterion_07_triangle_inversion():
    _criterion(
        7,
        "two-sided matrix inverse matches the substitution oracle, order 8",
        [inversion_suite(order=8)],
    )


def test_criterion_08_combinatorial_oracles():
    reports = [
        selections_oracle_suite(n_max=8),
        bipartite_oracle_suite(n_max=5),
        dag_oracle_suite(n_max=4),
    ]
    reports.extend(verify_inverse_relation(p_val, n_max=8) for p_val in (2, 3))
    _criterion(8, "brute-force enumeration matches the formulas", reports)


def test_criterion_09_fibonomial_suite():
    _criterion(
        9,
        "fibonacci-family recurrences and series, alpha in {1, 2}, n <= 10",
        [fibonomial_suite(alpha, n_max=10) for alpha in (1, 2)],
    )


def test_criterion_10_specializations():
    _criterion(
        10,
        "pascal, gaussian and scale specializations",
        [specialization_suite(n_max=8)],
    )


def test_criterion_11_every_report_compared_points():
    reports = run_verify("all") + run_oracle("all")
    _criterion(
        11,
        "every default identity and oracle report compared at least one point",
        reports,
        extra_ok=all(report.checked >= 1 for report in reports),
    )
