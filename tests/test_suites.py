"""Sweep drivers: every suite must hold on reduced bounds, and the
dispatchers must reject unknown names."""

from __future__ import annotations

import ast
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from tnomial import coefficients, identities, oracles, suites
from tnomial.errors import BudgetExceededError
from tnomial.report import IdentityReport
from tnomial.rings import BiPoly
from tnomial.sequences import SeqParams
from tnomial.suites import (
    IDENTITY_OPTIONS,
    IDENTITY_SUITES,
    ORACLE_SUITES,
    binomial_suite,
    dag_oracle_suite,
    equal1_suite,
    fibonomial_suite,
    gf_suite,
    inversion_suite,
    orthogonality_suite,
    pq_grid,
    routes_suite,
    run_oracle,
    run_verify,
    sample_grid,
    selections_oracle_suite,
    specialization_suite,
    vandermonde_suite,
)

SYMBOLIC = SeqParams(BiPoly.var_p(), BiPoly.var_q())  # the expansions over Z[p, q]


def test_grid_shape():
    grid = pq_grid()
    assert len(grid) == 49
    assert (-2, -2) in grid and (4, 4) in grid
    assert pq_grid(1, 3) == [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]


def test_sample_grid_deterministic():
    grid = pq_grid()
    assert sample_grid(grid, 5, seed=1) == sample_grid(grid, 5, seed=1)
    assert len(sample_grid(grid, 5, seed=1)) == 5
    assert sample_grid(grid, 500, seed=1) == grid


# the run_verify options each identity suite reads
READS = {
    "routes": {"grid", "n_max"},
    "gf": {"grid", "n_max", "order"},
    "binomial": {"n_max"},
    "orthogonality": {"grid", "n_max"},
    "vandermonde": {"grid", "n_max"},
    "equal1": {"grid", "n_max"},
    "inversion": {"grid", "n_max"},
    "fibonomial": {"n_max", "alpha"},
    "specializations": {"n_max"},
}
OPTIONS = {"grid": [(2, 3)], "n_max": 2, "order": 3, "alpha": 3}


def test_every_identity_suite_holds_small():
    small = pq_grid(-1, 2)
    for name in IDENTITY_SUITES:
        for report in run_verify(name, grid=small if "grid" in READS[name] else None, n_max=4):
            assert report.holds, (name, report.first_counterexample)


def test_run_verify_rejects_an_option_the_suite_does_not_read(monkeypatch):
    monkeypatch.setattr(suites, "sweep", lambda *args: pytest.fail("a suite ran"))
    assert set(READS) == set(IDENTITY_SUITES)
    for name, reads in READS.items():
        for option in OPTIONS.keys() - reads:
            with pytest.raises(ValueError, match=f"the {name} suite does not read {option}"):
                run_verify(name, **{option: OPTIONS[option]})
    with pytest.raises(ValueError, match="does not read order, alpha"):
        run_verify("routes", order=3, alpha=5)


def test_run_verify_all_passes_each_option_to_the_suites_that_read_it():
    expected = [
        report
        for name, reads in READS.items()
        for report in run_verify(name, **{option: OPTIONS[option] for option in reads})
    ]
    assert run_verify("all", **OPTIONS) == expected
    assert [report.bounds for report in expected[:2]] == [(2, 2), (2, 3)]
    assert [report.identity_id for report in expected[-2:]] == ["fibonomial", "specializations"]
    assert expected[-2].params == "alpha=3"


GRID_SUITES = (routes_suite, gf_suite, orthogonality_suite, vandermonde_suite, equal1_suite, inversion_suite)


def test_every_grid_suite_is_vacuous_on_an_empty_grid():
    assert len(GRID_SUITES) == sum("grid" in reads for reads in READS.values())
    for suite in GRID_SUITES:
        report = suite(grid=[])
        assert (report.status, report.checked, report.params) == ("vacuous", 0, "empty grid"), suite.__name__
    reports = run_verify("all", grid=[])
    assert [report.identity_id for report in reports if not report.holds] == [
        "route-agreement", "gf-coherence", "orthogonality", "vandermonde", "unit-sum", "inversion",
    ]
    assert all(report.status == "vacuous" for report in reports if not report.holds)


def test_identity_options_list_what_each_suite_reads():
    assert {name: set(reads) for name, reads in IDENTITY_OPTIONS.items()} == {**READS, "all": set(OPTIONS)}


def test_no_identity_suite_holds_at_a_negative_bound():
    # an empty index range compares nothing, not even two empty matrix products
    for name in IDENTITY_SUITES:
        try:
            reports = run_verify(name, n_max=-1)
        except ValueError:
            continue
        assert [(report.status, report.checked) for report in reports] == [("vacuous", 0)] * len(reports), name
    assert run_verify("inversion", [(2, 3)], -1)[0].status == "vacuous"


def test_every_oracle_suite_holds_small():
    for name in ORACLE_SUITES:
        for report in run_oracle(name, n_max=4):
            assert report.holds, (name, report.first_counterexample)


def test_vandermonde_notes_document_rejected_variant():
    report = vandermonde_suite()
    assert report.holds
    assert any("fails" in note for note in report.notes)
    assert any("interior" in note for note in report.notes)


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        run_verify("numerology")
    with pytest.raises(ValueError):
        run_oracle("numerology")


def test_run_verify_passes_alpha_to_the_fibonomial_suite():
    assert run_verify("fibonomial", n_max=6, alpha=3) == [fibonomial_suite(3, 6)]


def test_selections_oracle_raises_past_its_cap(monkeypatch):
    # k_max past the counter's cap k <= 6 raises, not a HOLDS over k <= 6 only
    monkeypatch.setattr(suites, "SELECTION_K_MAX", 7)
    with pytest.raises(BudgetExceededError):
        selections_oracle_suite()


def _imports_sweep(node) -> bool:
    """Whether an import statement binds ``report.sweep`` or the report module."""
    if isinstance(node, ast.ImportFrom):
        if (node.module or "").split(".")[-1] == "report":
            return any(alias.name in ("sweep", "*") for alias in node.names)
        return any(alias.name == "report" for alias in node.names)
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "report" for alias in node.names)
    return False


def test_only_the_suites_module_sweeps():
    """Oracles and identities compute sides; only suites.py compares them."""
    package = Path(suites.__file__).parent
    importers = {
        path.name
        for path in package.glob("*.py")
        if any(_imports_sweep(node) for node in ast.walk(ast.parse(path.read_text())))
    }
    assert importers == {"suites.py"}


def corrupt_triangle_rows(monkeypatch, n, k):
    """Make the suites read ``triangle_rows`` with entry (n, k) off by one."""
    original = coefficients.triangle_rows

    def off_by_one(params, n_max):
        for m, row in enumerate(original(params, n_max)):
            yield [value + ((m, j) == (n, k)) for j, value in enumerate(row)]

    monkeypatch.setattr(suites, "triangle_rows", off_by_one)


def mismatches(points):
    return [point for point in points if point[-2] != point[-1]]


def test_orthogonality_violation_is_a_failing_point(monkeypatch):
    corrupt_triangle_rows(monkeypatch, 3, 2)
    report = orthogonality_suite([(2, 3)], 4)
    assert report.status == "fails"
    # n = 1: 5 + 5 series coefficients and 3 sums at each s, plus the
    # reversed sum at s = 1, pass; n = 2: 5 subset coefficients pass, and
    # its multiset coefficient 2 reads C(3, 2)
    assert report.checked == 31
    assert report.first_counterexample == {
        "p": 2, "q": 3, "n": 2, "check": "multiset-gf", "k": 2, "lhs": 19, "rhs": 20,
    }


def test_orthogonality_sums_are_points_of_their_own(monkeypatch):
    # C(4, 1) is read first by the convolution sum of n = 2 at s = 3, whose
    # value, not a folded verdict, is the counterexample
    corrupt_triangle_rows(monkeypatch, 4, 1)
    report = orthogonality_suite([(2, 3)])
    assert report.first_counterexample == {"p": 2, "q": 3, "n": 2, "check": "convolution", "k": 3, "lhs": 1, "rhs": 0}
    # n = 1: 9 + 9 coefficients and 3 * 8 + 1 sums; n = 2: 18 coefficients,
    # 3 sums at s = 1, 4 at s = 2 and the failing one at s = 3
    assert report.checked == 43 + 18 + 3 + 4 + 1


GF_KEYS = ("p", "q", "n", "check", "k", "lhs", "rhs")


@pytest.mark.parametrize("p, q", [(2, 3), (-3, 2)])
@pytest.mark.parametrize("check", ["subset-gf", "split-gf", "multiset-gf"])
def test_gf_compares_every_series_coefficient(monkeypatch, check, p, q):
    # With C(5, 2) off by one, exactly one coefficient of each series reads
    # it and fails, with the true weighted entry against the corrupted one.
    c = coefficients.coeff_recurrence(SeqParams(p, q), 5, 2)
    corrupt_triangle_rows(monkeypatch, 5, 2)
    expected = {
        "multiset-gf": (p, q, 4, "multiset-gf", 2, c, c + 1),  # coefficient 2 of n = 4 is C(4 + 2 - 1, 2)
        "subset-gf": (p, q, 5, "subset-gf", 2, p * q * c, p * q * (c + 1)),
        "split-gf": (p, q, 5, "split-gf", 2, q * p**3 * c, q * p**3 * (c + 1)),
    }
    failed = mismatches(suites._gf_points([(p, q)], 8, 10))
    assert [point for point in failed if point[3] == check] == [expected[check]]
    assert len(failed) == 3
    # the sweep stops at the first of them: n = 4 comes before n = 5
    assert gf_suite([(p, q)]).first_counterexample == dict(zip(GF_KEYS, expected["multiset-gf"]))


@pytest.mark.parametrize("form, weight", [("subset", lambda p, q: q * p), ("split", lambda p, q: q * p**3)])
def test_binomial_compares_every_coefficient(monkeypatch, form, weight):
    # With the symbolic C(5, 2) off by one, coefficient 2 of the subset and
    # of the split product of n = 5 fail, each with its weight
    # (-1)**2 q**C(2,2) p**E: E = C(2,2) for the subset, C(3,2) for the split.
    symbolic = coefficients.coeff_symbolic
    monkeypatch.setattr(suites, "coeff_symbolic", lambda n, k: symbolic(n, k) + ((n, k) == (5, 2)))
    w, c, label = weight(BiPoly.var_p(), BiPoly.var_q()), symbolic(5, 2), f"{form}-gf"
    failed = mismatches(suites._binomial_points(7))
    assert [point for point in failed if point[1] == label] == [(5, label, 2, w * c, w * (c + 1))]
    assert len(failed) == 2
    report = binomial_suite()
    assert failed[0][1] == "subset-gf"
    assert report.first_counterexample == dict(zip(("n", "form", "k", "lhs", "rhs"), failed[0]))
    assert report.checked == 2 * (2 + 3 + 4 + 5) + 3  # n = 1..4 both forms, n = 5 subset k = 0..2


def test_binomial_fails_on_a_corrupted_split_expansion(monkeypatch):
    # coefficient 3 of the Z[p, q] split product of n = 6 off by pq
    expand = identities.expand_split_gf
    pq = BiPoly.var_p() * BiPoly.var_q()

    def corrupted(n, params):
        series = expand(n, params)
        if (n, params) != (6, SYMBOLIC):
            return series
        return tuple(c + pq * (k == 3) for k, c in enumerate(series))

    monkeypatch.setattr(suites, "expand_split_gf", corrupted)
    report = binomial_suite()
    true = expand(6, SYMBOLIC)[3]
    assert report.status == "fails"
    assert report.first_counterexample == {"n": 6, "form": "split-gf", "k": 3, "lhs": true + pq, "rhs": true}
    assert report.checked == 2 * (2 + 3 + 4 + 5 + 6) + 7 + 4  # n = 1..5 both forms, n = 6 subset, split k = 0..3


def test_unit_sum_computes_each_sum_once(monkeypatch):
    calls = []
    original = coefficients.coeff_partial_fractions
    monkeypatch.setattr(suites, "coeff_partial_fractions", lambda *args: calls.append(args) or original(*args) + 1)
    report = equal1_suite([(2, 3)], 3)
    assert report.first_counterexample == {"p": 2, "q": 3, "k": 0, "lhs": 2, "rhs": 1}
    assert calls == [(SeqParams(2, 3), 0, 0)]


def test_orthogonality_expands_each_series_once_per_n(monkeypatch):
    calls = {"expand_subset_gf": 0, "expand_multiset_gf": 0}
    for name in calls:
        original = getattr(identities, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (identities, suites):
            monkeypatch.setattr(module, name, counting)
    report = orthogonality_suite([(2, 3)], 5)
    assert calls == {"expand_subset_gf": 5, "expand_multiset_gf": 5}
    # per n: 6 subset and 6 multiset coefficients, 3 sums at each s <= 5
    # and the reversed sum at s = n
    assert report == IdentityReport("orthogonality", "p in [2..2], q in [3..3]", (5, 5), "holds", checked=140)


def count_calls(monkeypatch, function) -> list[tuple]:
    """Wrap ``function`` at every binding in tnomial's modules; the returned
    list collects the arguments of each call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name == "tnomial" or name.startswith("tnomial."):
            for attribute, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attribute, counting)
    return calls


def test_inversion_reads_whole_rows(monkeypatch):
    inverse_calls = count_calls(monkeypatch, coefficients.coeff_inverse)
    recurrence_calls = count_calls(monkeypatch, coefficients.coeff_recurrence)
    report = inversion_suite([(2, 3)], 8)
    assert (len(inverse_calls), len(recurrence_calls)) == (0, 0)
    assert report == IdentityReport("inversion", "p in [2..2], q in [3..3]", (8, 8), "holds", checked=47)


def test_dag_oracle_counts_each_digraph_set_once(monkeypatch):
    calls = count_calls(monkeypatch, oracles.count_acyclic_multidigraphs)
    report = dag_oracle_suite()
    assert sorted(calls) == [(p_val, n) for p_val in (2, 3) for n in range(5)]
    assert report == IdentityReport("acyclic-oracle", "p in {2, 3}", (4, 4), "holds", checked=15)


def test_dag_oracle_notes_its_cap():
    # the suite itself raises past the counter's cap; only run_oracle caps and notes
    with pytest.raises(BudgetExceededError):
        dag_oracle_suite(9)
    assert dag_oracle_suite(4).notes == ()
    note = "n_max capped at 4 (asked 9)"
    assert run_oracle("dag", 9) == [
        IdentityReport("acyclic-oracle", "p in {2, 3}", (4, 4), "holds", notes=(note,), checked=15)
    ]


def test_routes_read_one_row_per_route_and_n(monkeypatch):
    weights_calls = count_calls(monkeypatch, coefficients.box_weights)
    column_calls = count_calls(monkeypatch, coefficients.partial_fraction_column)
    point_calls = [
        count_calls(monkeypatch, function)
        for function in (
            coefficients.coeff_lambda_subset,
            coefficients.coeff_lambda_multiset,
            coefficients.coeff_factorial,
            coefficients.coeff_symbolic,
            coefficients.coeff_product,
            coefficients.coeff_partial_fractions,
        )
    ]
    report = routes_suite()
    per_row = Counter((params.p, params.q, n) for params, n in weights_calls)
    assert max(per_row.values()) == 2
    assert len(per_row) == 49 * 13  # every (p, q, n), n = 0 by the subset route alone
    # the partial-fraction basis (nodes, D(0..k), quotients) once per (p, q, k)
    per_basis = Counter((params.p, params.q, k) for params, k, _ in column_calls)
    assert len(per_basis) == 49 * 13 and max(per_basis.values()) == 1
    assert [len(calls) for calls in point_calls] == [0, 0, 0, 0, 0, 0]
    assert report == IdentityReport(
        "route-agreement", "p in [-2..4], q in [-2..4]", (12, 12), "holds", checked=24308
    )


@pytest.mark.parametrize(
    "route, row_form, where",
    [
        ("subset", "lambda_subset_row", (2, -1, 5, 3)),
        ("multiset", "lambda_multiset_row", (3, 4, 7, 0)),
        ("factorial", "factorial_row", (-2, 3, 12, 12)),
        ("symbolic", "symbolic_row", (0, 2, 9, 4)),
        ("product", "product_row", (3, -1, 8, 5)),
    ],
)
def test_routes_compare_every_row_entry(monkeypatch, route, row_form, where):
    original = getattr(coefficients, row_form)

    def off_by_one(params, n):
        row = list(original(params, n))
        if (params.p, params.q, n) == where[:3]:
            row[where[3]] += 1
        return row

    monkeypatch.setattr(suites, row_form, off_by_one)
    report = routes_suite()
    assert report.status == "fails"
    location = {key: report.first_counterexample[key] for key in ("p", "q", "n", "k", "route")}
    assert location == dict(zip(("p", "q", "n", "k"), where), route=route)


def test_routes_compare_every_partial_fraction_column_entry(monkeypatch):
    original = coefficients.partial_fraction_column

    def off_by_one(params, k, ns):
        column = original(params, k, ns)
        if (params.p, params.q, k) == (-2, 3, 4):
            column[7 - k] += 1  # the entry of n = 7
        return column

    monkeypatch.setattr(suites, "partial_fraction_column", off_by_one)
    report = routes_suite()
    location = {key: report.first_counterexample[key] for key in ("p", "q", "n", "k", "route")}
    assert location == {"p": -2, "q": 3, "n": 7, "k": 4, "route": "partial-fractions"}


def test_gf_orthogonality_and_vandermonde_read_reference_rows(monkeypatch):
    calls = count_calls(monkeypatch, coefficients.coeff_recurrence)
    reports = gf_suite(), orthogonality_suite(), vandermonde_suite()
    assert calls == []
    assert [(report.status, report.checked) for report in reports] == [
        ("holds", 10927), ("holds", 16856), ("holds", 1944)
    ]


def test_specializations_read_each_unscaled_row_once(monkeypatch):
    calls = count_calls(monkeypatch, coefficients.coeff_factorial)
    report = specialization_suite()
    assert len(calls) == 270
    assert all(params.scale in (2, 3) for params, _, _ in calls)
    assert (report.status, report.checked) == ("holds", 888)


def test_fibonomial_suite_builds_its_factorials_once(monkeypatch):
    calls = count_calls(monkeypatch, identities.alpha_fibonacci)
    reports = [fibonomial_suite(alpha) for alpha in (1, 2)]
    assert calls == [(alpha, i) for alpha in (1, 2) for i in range(12)]
    assert [(report.status, report.checked) for report in reports] == [("holds", 155)] * 2


def test_specializations_compare_the_exact_gaussian_sum(monkeypatch):
    # a sum off by one half must fail as itself, not as its integer part
    explicit = identities.gaussian_explicit

    def off_by_half(q_val, n, k):
        return explicit(q_val, n, k) + Fraction(((q_val, n, k) == (3, 4, 2)), 2)

    monkeypatch.setattr(suites, "gaussian_explicit", off_by_half)
    report = specialization_suite()
    assert report.first_counterexample == {
        "case": "gaussian-explicit", "p": 1, "q": 3, "scale": 1, "n": 4, "k": 2, "lhs": Fraction(261, 2), "rhs": 130,
    }


@pytest.mark.parametrize(
    "series, case, location",
    [(0, "gaussian-phi", (2, 4, 1)), (0, "gaussian-phi", (3, 2, 0)), (1, "gaussian-basis", (3, 5, 5)),
     (1, "gaussian-basis", (2, 6, 0))],
)
def test_specializations_compare_every_gaussian_basis_coefficient(monkeypatch, series, case, location):
    basis = identities.gaussian_basis

    def off_by_one(q_val, n):
        expansions = list(basis(q_val, n))
        if (q_val, n) == location[:2]:
            k = location[2]
            expansions[series] = tuple(c + (j == k) for j, c in enumerate(expansions[series]))
        return tuple(expansions)

    monkeypatch.setattr(suites, "gaussian_basis", off_by_one)
    report = specialization_suite()
    failed = {key: report.first_counterexample[key] for key in ("case", "q", "n", "k", "rhs")}
    q_val, n, k = location
    rhs = identities.gaussian_inverse_entry(q_val, n, k) if series == 0 else int(k == n)
    assert failed == {"case": case, "q": q_val, "n": n, "k": k, "rhs": rhs}
    assert report.first_counterexample["lhs"] == rhs + 1
