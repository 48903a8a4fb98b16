"""Sweep drivers: every suite must hold on reduced bounds, and the
dispatchers must reject unknown names."""

from __future__ import annotations

import sys

import pytest

from tnomial import coefficients, identities, oracles, suites
from tnomial.report import IdentityReport
from tnomial.suites import (
    IDENTITY_SUITES,
    ORACLE_SUITES,
    dag_oracle_suite,
    inversion_suite,
    orthogonality_suite,
    pq_grid,
    run_oracle,
    run_verify,
    sample_grid,
    vandermonde_suite,
)


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


def test_every_identity_suite_holds_small():
    small = pq_grid(-1, 2)
    for name in IDENTITY_SUITES:
        for report in run_verify(name, grid=small, n_max=4):
            assert report.holds, (name, report.first_counterexample)


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


def test_orthogonality_violation_is_a_failing_point(monkeypatch):
    recurrence = identities.coeff_recurrence

    def off_by_one_at_3_2(params, n, k):
        return recurrence(params, n, k) + ((n, k) == (3, 2))

    monkeypatch.setattr(identities, "coeff_recurrence", off_by_one_at_3_2)
    report = orthogonality_suite([(2, 3)], 4, 4)
    assert report.status == "fails"
    # n = 1 passes at every s; n = 2's multiset series reads C(3, 2) as coefficient 2
    assert report.checked == 5
    assert report.first_counterexample == {
        "p": 2, "q": 3, "n": 2, "s": "multiset-gf at (2, 2)", "lhs": 19, "rhs": 20,
    }


def test_orthogonality_expands_each_series_once_per_n(monkeypatch):
    calls = {"expand_subset_gf": 0, "expand_multiset_gf": 0}
    for name in calls:
        original = getattr(identities, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (identities, suites):
            monkeypatch.setattr(module, name, counting)
    report = orthogonality_suite([(2, 3)], 5, 7)
    assert calls == {"expand_subset_gf": 5, "expand_multiset_gf": 5}
    assert report == IdentityReport("orthogonality", "p in [2..2], q in [3..3]", (5, 7), "holds", checked=35)


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
