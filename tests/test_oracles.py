"""Brute-force counters and the exact triangular-matrix machinery."""

from __future__ import annotations

import ast
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tnomial import oracles
from tnomial.errors import BudgetExceededError, SingularMatrixError
from tnomial.oracles import (
    BoxWeights,
    TriMatrix,
    count_acyclic_multidigraphs,
    count_acyclic_multidigraphs_recurrence,
    count_bipartite_multigraphs,
    count_selections,
    enumeration_budget,
    invert_triangular,
    volume_ratio,
)
from tnomial.coefficients import coeff_recurrence, triangle_rows
from tnomial.sequences import SeqParams
from tnomial.suites import verify_inverse_relation

params_23 = SeqParams(2, 3)


def outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


def index_loop_selections(boxes, k, repetition):
    """The selection count as one index loop per chosen multiset or subset."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = boxes.n
    if n > 8 or k > 6:
        raise BudgetExceededError(f"selection oracle capped at n <= 8, k <= 6, got n={n}, k={k}")
    if repetition:
        size = comb(n + k - 1, k) if n + k >= 1 else 1
    else:
        size = comb(n, k)
    oracles._check_budget(size, "selection counting")
    chooser = combinations_with_replacement if repetition else combinations
    total = 0
    for indices in chooser(range(n), k):
        ways = 1
        for i in indices:
            ways *= boxes.weights[i]
        total += ways
    return total


def _is_acyclic(n, arcs):
    indegree = [0] * n
    outgoing = [[] for _ in range(n)]
    for u, v in arcs:
        outgoing[u].append(v)
        indegree[v] += 1
    stack = [v for v in range(n) if indegree[v] == 0]
    seen = 0
    while stack:
        u = stack.pop()
        seen += 1
        for v in outgoing[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                stack.append(v)
    return seen == n


def arc_list_acyclic_count(p_val, n):
    """The acyclic multi-digraph count over arc lists, with a topological
    sort as the cycle check."""
    if p_val < 2:
        raise ValueError("p_val must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 4:
        raise BudgetExceededError(f"acyclic-digraph oracle capped at n <= 4, got n={n}")
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    oracles._check_budget(2 ** len(pairs), "acyclic-digraph counting")
    total = 0
    for present in product((0, 1), repeat=len(pairs)):
        arcs = [pair for pair, bit in zip(pairs, present) if bit]
        if _is_acyclic(n, arcs):
            total += (p_val - 1) ** len(arcs)
    return total


def fraction_matmul(a, b):
    """The triangular product summed entry by entry in Fractions, whatever
    the entries' types."""
    return tuple(
        tuple(sum((a.rows[i][m] * b.rows[m][j] for m in range(j, i + 1)), Fraction(0)) for j in range(i + 1))
        for i in range(a.order)
    )


def fraction_inverse(matrix):
    """Forward substitution row by row in Fractions, whatever the entries'
    types: each entry starts from a Fraction, so no division falls back to
    float."""
    for i in range(matrix.order):
        if matrix.rows[i][i] == 0:
            raise SingularMatrixError(f"zero diagonal entry at row {i}")
    inverse = []
    for i in range(matrix.order):
        row = []
        for j in range(i + 1):
            if j == i:
                row.append(Fraction(1) / matrix.rows[i][i])
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
    """The rows, once every entry is checked to be exact: an int or a Fraction."""
    assert all(type(entry) in (int, Fraction) for row in matrix.rows for entry in row)
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

    @settings(deadline=None)
    @given(st.lists(st.sampled_from((1, 2, 3, 6, 9)), max_size=8), st.integers(0, 6), st.booleans())
    def test_matches_index_loop(self, weights, k, repetition):
        # few distinct weights, so equal weights in different boxes are common
        boxes = BoxWeights(tuple(weights))
        assert count_selections(boxes, k, repetition) == index_loop_selections(boxes, k, repetition)


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

    def test_matches_arc_list_enumeration(self):
        for p_val in range(2, 6):
            for n in range(5):
                assert count_acyclic_multidigraphs(p_val, n) == arc_list_acyclic_count(p_val, n), (p_val, n)


@pytest.mark.parametrize("budget", ["1", "20", "100", "4096"])
def test_errors_match_the_references_under_a_budget(monkeypatch, budget):
    monkeypatch.setenv("TNOMIAL_MAX_BUDGET", budget)
    for p_val in (1, 2, 3):
        for n in range(-1, 6):
            expected = outcome(arc_list_acyclic_count, p_val, n)
            assert outcome(count_acyclic_multidigraphs, p_val, n) == expected, (p_val, n)
    for n in (0, 3, 8, 9):
        boxes = BoxWeights((2,) * n)
        for k in range(-1, 8):
            for repetition in (False, True):
                expected = outcome(index_loop_selections, boxes, k, repetition)
                assert outcome(count_selections, boxes, k, repetition) == expected, (n, k, repetition)
    message = f"acyclic-digraph counting would enumerate 4096 objects, budget is {budget}"
    expected = 543 if budget == "4096" else (BudgetExceededError, message)
    assert outcome(count_acyclic_multidigraphs, 2, 4) == expected


class TestTriMatrix:
    def test_unit_diagonal_integers_stay_integers(self):
        triangle = TriMatrix(tuple(map(tuple, triangle_rows(params_23, 8))))
        inverse = invert_triangular(triangle)
        for matrix in (inverse, triangle @ inverse, inverse @ triangle):
            assert all(type(entry) is int for row in matrix.rows for entry in row)

    def test_entries_are_kept_as_given(self):
        half = Fraction(1, 2)
        m = TriMatrix(((1,), (half, 3)))
        assert type(m.rows[1][0]) is Fraction and type(m.rows[1][1]) is int
        assert type((m @ TriMatrix.identity(2)).rows[1][0]) is Fraction
        assert invert_triangular(m).rows == ((1,), (Fraction(-1, 6), Fraction(1, 3)))

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

    @example(TriMatrix(((3,),)))
    @example(TriMatrix(((-1,), (2, Fraction(-3, 4)))))
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


def test_oracles_import_nothing_from_coefficients_at_module_level():
    """Agreement between an oracle and a formula route is evidence only if
    the oracle module does not load the formulas itself, at module level or
    inside a function."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports, "the guard found no imports at all"
    for node in imports:
        modules = [alias.name for alias in node.names]
        if isinstance(node, ast.ImportFrom):
            modules = [f"{node.module}.{name}" if node.module else name for name in modules]
        assert not any("coefficients" in module.split(".") for module in modules), ast.unparse(node)
