"""Sequence terms, their factorials and the splitting recurrences."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnomial.rings import BiPoly, XSeries
from tnomial.sequences import SeqParams, compositions_of, term_closed, term_factorial

params_23 = SeqParams(2, 3)


# Three more definitions of the n-th term, kept here as references for
# ``term_closed``: the power sum, the sum over Z[p, q] and the
# generating-function expansion.


def term_sum(params: SeqParams, n: int) -> int:
    """n-th term as the homogeneous power sum over q**(n-i) * p**(i-1)."""
    p, q = params.p, params.q
    return params.scale * sum(q ** (n - i) * p ** (i - 1) for i in range(1, n + 1))


def term_symbolic(n: int) -> BiPoly:
    """n-th term with p and q left as indeterminates (scale fixed at 1)."""
    return BiPoly({(i - 1, n - i): 1 for i in range(1, n + 1)})


def geometric_series(lam, order: int) -> tuple:
    """Coefficients 0..order-1 of 1 / (1 - lam*x): lam**j at x**j."""
    return tuple(lam**j for j in range(order))


def gf_coefficients(params: SeqParams, count: int) -> list[int]:
    """Terms 0..count read off scale * x / ((1 - p*x)(1 - q*x)), expanded as
    the truncated product of the two geometric factors, shifted by one."""
    if count == 0:
        return [0]
    prod = XSeries(geometric_series(params.p, count)) * XSeries(geometric_series(params.q, count))
    return [0] + [params.scale * c for c in prod.coefficients[:count]]


param_ints = st.integers(-4, 4)
indices = st.integers(0, 10)


class TestTerms:
    def test_frozen_values(self):
        assert [term_closed(params_23, n) for n in range(6)] == [0, 1, 5, 19, 65, 211]

    def test_sum_route_agrees(self):
        for p in range(-3, 4):
            for q in range(-3, 4):
                params = SeqParams(p, q)
                for n in range(9):
                    assert term_sum(params, n) == term_closed(params, n)

    def test_diagonal_closed_form(self):
        params = SeqParams(3, 3)
        assert [term_closed(params, n) for n in range(5)] == [0, 1, 6, 27, 108]

    def test_scale_multiplies_terms(self):
        scaled = SeqParams(2, 3, scale=4)
        assert [term_closed(scaled, n) for n in range(4)] == [0, 4, 20, 76]

    def test_gf_route_agrees(self):
        for p, q in ((2, 3), (1, 1), (-2, 3), (0, 5), (2, 2)):
            params = SeqParams(p, q)
            assert gf_coefficients(params, 8) == [term_closed(params, n) for n in range(9)]

    def test_gf_respects_scale(self):
        assert gf_coefficients(SeqParams(2, 3, scale=2), 3) == [0, 2, 10, 38]

    @given(param_ints, param_ints, indices)
    def test_symbolic_term_evaluates_to_closed_form(self, p, q, n):
        assert term_symbolic(n).eval(p, q) == term_closed(SeqParams(p, q), n)

    def test_symbolic_term_is_homogeneous(self):
        for n in range(1, 8):
            terms = term_symbolic(n).terms
            assert {i + j for i, j in terms} == {n - 1}
            assert {(j, i): c for (i, j), c in terms.items()} == terms

    def test_factorial_frozen(self):
        assert term_factorial(params_23, 0) == 1
        assert term_factorial(params_23, 4) == 1 * 5 * 19 * 65

    @pytest.mark.parametrize("pq", [(0, 0), (2, -2), (3, 3), (-2, 3), (2, 3), (-1, 1)])
    def test_factorial_equals_sequential_product(self, pq):
        params = SeqParams(*pq)
        sequential = 1
        for n in range(41):
            assert term_factorial(params, n) == sequential
            sequential *= term_closed(params, n + 1)

    def test_factorial_scale(self):
        assert term_factorial(SeqParams(2, 3, scale=2), 3) == (2 * 1) * (2 * 5) * (2 * 19)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            term_closed(params_23, -1)


class TestParams:
    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            SeqParams(2, 3, scale=0)
        with pytest.raises(ValueError):
            SeqParams(2, 3, scale=-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            params_23.p = 5


class TestSplitRecurrence:
    @given(param_ints, param_ints, st.integers(0, 8), st.integers(0, 8))
    def test_identity_holds_everywhere(self, p, q, k, m):
        params = SeqParams(p, q)
        lhs = term_closed(params, k + m)
        rhs = p**m * term_closed(params, k) + q**k * term_closed(params, m)
        assert lhs == rhs


class TestCompositions:
    def test_lexicographic_order(self):
        got = list(compositions_of(4, 2))
        assert got == [(1, 3), (2, 2), (3, 1)]

    def test_count(self):
        for n in range(1, 9):
            for parts in range(1, n + 1):
                assert sum(1 for _ in compositions_of(n, parts)) == comb(n - 1, parts - 1)

    def test_parts_sum_and_positivity(self):
        for c in compositions_of(6, 3):
            assert sum(c) == 6
            assert len(c) == 3
            assert all(part >= 1 for part in c)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            list(compositions_of(3, 0))
        with pytest.raises(ValueError):
            list(compositions_of(0, 1))

    def test_more_parts_than_total_is_empty(self):
        assert list(compositions_of(2, 3)) == []
