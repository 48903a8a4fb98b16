"""Brute-force counters and the exact triangular-matrix machinery."""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnomial import oracles
from tnomial.errors import BudgetExceededError, SingularMatrixError
from tnomial.identities import alpha_fibonacci
from tnomial.oracles import (
    BoxWeights,
    TriMatrix,
    count_acyclic_multidigraphs,
    count_acyclic_multidigraphs_recurrence,
    count_bipartite_multigraphs,
    count_selections,
    enumeration_budget,
    invert_triangular,
    verify_inverse_relation,
    volume_ratio,
)
from tnomial.coefficients import coeff_recurrence
from tnomial.sequences import SeqParams

params_23 = SeqParams(2, 3)


def fraction_matmul(a, b):
    """The triangular product summed entry by entry in Fractions."""
    return tuple(
        tuple(sum((a.rows[i][m] * b.rows[m][j] for m in range(j, i + 1)), Fraction(0)) for j in range(i + 1))
        for i in range(a.order)
    )


def fraction_inverse(matrix):
    """Forward substitution row by row in Fractions."""
    for i in range(matrix.order):
        if matrix.rows[i][i] == 0:
            raise SingularMatrixError(f"zero diagonal entry at row {i}")
    inverse = []
    for i in range(matrix.order):
        row = []
        for j in range(i + 1):
            if j == i:
                row.append(1 / matrix.rows[i][i])
            else:
                acc = sum((matrix.rows[i][m] * inverse[m][j] for m in range(j, i)), Fraction(0))
                row.append(-acc / matrix.rows[i][i])
        inverse.append(tuple(row))
    return tuple(inverse)


entries = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=12))
nonzero = entries.filter(bool)


@st.composite
def triangular(draw, diagonal=nonzero, order=None):
    """A lower-triangular matrix of order 0..7 over ints and rationals."""
    size = draw(st.integers(0, 7)) if order is None else order
    return TriMatrix(tuple(tuple(draw(diagonal if j == i else entries) for j in range(i + 1)) for i in range(size)))


def fraction_rows(matrix):
    assert all(type(entry) is Fraction for row in matrix.rows for entry in row)
    return matrix.rows


class TestBoxWeights:
    def test_from_params(self):
        assert BoxWeights.from_params(params_23, 3).weights == (4, 6, 9)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            BoxWeights.from_params(SeqParams(0, 3), 3)
        with pytest.raises(ValueError):
            BoxWeights.from_params(SeqParams(2, -1), 3)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            BoxWeights((1, 0, 2))


class TestSelections:
    def test_frozen_counts(self):
        boxes = BoxWeights.from_params(params_23, 3)
        assert count_selections(boxes, 2, repetition=True) == 247
        assert count_selections(boxes, 2, repetition=False) == 114

    def test_empty_selection(self):
        boxes = BoxWeights.from_params(params_23, 4)
        assert count_selections(boxes, 0, repetition=True) == 1
        assert count_selections(boxes, 0, repetition=False) == 1

    def test_more_picks_than_boxes(self):
        boxes = BoxWeights.from_params(SeqParams(1, 1), 2)
        assert count_selections(boxes, 3, repetition=False) == 0
        assert count_selections(boxes, 3, repetition=True) == comb(4, 3)

    def test_cap(self):
        boxes = BoxWeights.from_params(SeqParams(1, 1), 8)
        with pytest.raises(BudgetExceededError):
            count_selections(boxes, 7, repetition=False)
        with pytest.raises(BudgetExceededError):
            count_selections(BoxWeights.from_params(SeqParams(1, 1), 9), 2, repetition=False)


class TestBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("TNOMIAL_MAX_BUDGET", raising=False)
        assert enumeration_budget() == 5_000_000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TNOMIAL_MAX_BUDGET", "10")
        assert enumeration_budget() == 10
        boxes = BoxWeights.from_params(SeqParams(1, 1), 6)
        with pytest.raises(BudgetExceededError):
            count_selections(boxes, 3, repetition=False)

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("TNOMIAL_MAX_BUDGET", "lots")
        with pytest.raises(ValueError):
            enumeration_budget()
        monkeypatch.setenv("TNOMIAL_MAX_BUDGET", "0")
        with pytest.raises(ValueError):
            enumeration_budget()


class TestBipartite:
    def test_frozen_counts(self):
        assert count_bipartite_multigraphs(2, 3, 1) == 12
        assert count_bipartite_multigraphs(2, 4, 2) == 96

    def test_closed_form(self):
        for alpha in (1, 2, 3):
            for n in range(5):
                for k in range(n + 1):
                    assert count_bipartite_multigraphs(alpha, n, k) == comb(n, k) * alpha ** (
                        k * (n - k)
                    )

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            count_bipartite_multigraphs(2, 6, 3)
        with pytest.raises(BudgetExceededError):
            count_bipartite_multigraphs(4, 4, 2)


class TestAcyclicMultidigraphs:
    def test_frozen_base_counts(self):
        assert [count_acyclic_multidigraphs(2, n) for n in range(5)] == [1, 1, 3, 25, 543]

    def test_higher_multiplicity(self):
        assert count_acyclic_multidigraphs(3, 2) == 5
        assert count_acyclic_multidigraphs(3, 3) == 109
        assert count_acyclic_multidigraphs(3, 4) == 9449

    def test_recurrence_matches_brute_force(self):
        for p_val in (2, 3):
            for n in range(5):
                assert count_acyclic_multidigraphs_recurrence(
                    p_val, n
                ) == count_acyclic_multidigraphs(p_val, n)

    def test_recurrence_extends_past_cap(self):
        assert count_acyclic_multidigraphs_recurrence(2, 5) == 29281

    def test_cap(self):
        with pytest.raises(BudgetExceededError):
            count_acyclic_multidigraphs(2, 5)


class TestTriMatrix:
    def test_entries_become_fractions(self):
        m = TriMatrix(((1,), (2, 3)))
        assert isinstance(m.rows[1][1], Fraction)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            TriMatrix(((1,), (2, 3, 4)))

    def test_identity_and_matmul(self):
        m = TriMatrix(((1,), (5, 1), (7, 2, 1)))
        eye = TriMatrix.identity(3)
        assert m @ eye == m
        assert eye @ m == m

    def test_inversion_is_two_sided(self):
        triangle = TriMatrix(
            tuple(tuple(coeff_recurrence(params_23, n, k) for k in range(n + 1)) for n in range(7))
        )
        inverse = invert_triangular(triangle)
        eye = TriMatrix.identity(7)
        assert triangle @ inverse == eye
        assert inverse @ triangle == eye

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            invert_triangular(TriMatrix(((1,), (2, 0))))

    @given(st.data())
    def test_matmul_matches_fraction_sums(self, data):
        a = data.draw(triangular(diagonal=entries))
        b = data.draw(triangular(diagonal=entries, order=a.order))
        assert fraction_rows(a @ b) == fraction_matmul(a, b)

    @given(triangular())
    def test_inverse_matches_fraction_substitution(self, matrix):
        assert fraction_rows(invert_triangular(matrix)) == fraction_inverse(matrix)

    @given(triangular(diagonal=entries))
    def test_zero_diagonal_message_unchanged(self, matrix):
        try:
            expected = fraction_inverse(matrix)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError, match=f"^{exc}$"):
                invert_triangular(matrix)
        else:
            assert fraction_rows(invert_triangular(matrix)) == expected


class TestVolumeRatio:
    def test_frozen_value(self):
        assert volume_ratio(SeqParams(1, 2), 3, 4) == 35

    def test_matches_triangle(self):
        for p in range(1, 4):
            for q in range(1, 4):
                params = SeqParams(p, q)
                for n in range(1, 8):
                    for k in range(1, n + 1):
                        assert volume_ratio(params, k, n) == coeff_recurrence(
                            params, n, n - k + 1
                        )

    def test_accepts_a_term_callable(self):
        fib = lambda n: alpha_fibonacci(1, n)
        assert volume_ratio(fib, 2, 5) == 5

    def test_index_validation(self):
        with pytest.raises(ValueError):
            volume_ratio(params_23, 0, 4)
        with pytest.raises(ValueError):
            volume_ratio(params_23, 5, 4)


class TestInverseRelation:
    def test_holds(self):
        assert verify_inverse_relation(2, 8).holds
        assert verify_inverse_relation(3, 6).holds

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            verify_inverse_relation(1, 4)
        with pytest.raises(ValueError):
            verify_inverse_relation(2, 9)


def _module_level_imports(nodes):
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        yield from _module_level_imports(ast.iter_child_nodes(node))


def test_oracles_import_nothing_from_coefficients_at_module_level():
    """Agreement between an oracle and a formula route is evidence only if
    the oracle module does not load the formulas itself."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    imports = list(_module_level_imports(tree.body))
    assert imports, "the guard found no imports at all"
    for node in imports:
        modules = [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{name}" if node.module else name for name in modules]
        assert not any("coefficients" in module.split(".") for module in modules), ast.unparse(node)
