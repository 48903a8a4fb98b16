"""Coefficient routes against each other and against literal enumeration."""

from __future__ import annotations

import copy
import decimal
import functools
import itertools
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnomial import coefficients
from tnomial.coefficients import (
    ROUTE_NAMES,
    box_weights,
    coeff_factorial,
    coeff_inverse,
    coeff_lambda_multiset,
    coeff_lambda_subset,
    coeff_partial_fractions,
    coeff_product,
    coeff_recurrence,
    coeff_route,
    coeff_symbolic,
    factorial_row,
    inverse_rows,
    lambda_multiset_row,
    lambda_subset_row,
    multinomial,
    partial_fraction_column,
    product_row,
    triangle_rows,
)
from tnomial.errors import DegenerateParametersError, DivisibilityError
from tnomial.oracles import TriMatrix, invert_triangular
from tnomial.report import decimal_str
from tnomial.rings import BiPoly, exact_div
from tnomial.sequences import SeqParams, compositions_of, term_closed, term_factorial
from tnomial.suites import PQ_GRID, pq_grid, run_oracle, run_verify

params_23 = SeqParams(2, 3)

param_ints = st.integers(-4, 4)
positive_params = st.integers(1, 4)


def brute_subset_sum(weights, k):
    return sum(prod(combo) for combo in itertools.combinations(weights, k))


def brute_multiset_sum(weights, k):
    return sum(prod(combo) for combo in itertools.combinations_with_replacement(weights, k))


def composition_sum_inverse(params, n, k):
    """The inverse entry as the literal sum over the 2**(n-k-1) compositions
    of n - k; capped, because the count doubles with every row."""
    r = n - k
    assert r <= 10, "the literal composition sum is a small-case reference"
    alternating = 1 if r == 0 else 0
    for s in range(1, r + 1):
        for composition in compositions_of(r, s):
            alternating += (-1) ** s * multinomial(params, r, composition)
    return coeff_recurrence(params, n, k) * alternating


def full_row_recurrence(params, n, k):
    """C(n, k) from whole rows 0..n of the triangle recurrence."""
    coefficients._check_indices(n, k)
    p, q = params.p, params.q
    row = [1]
    for m in range(1, n + 1):
        row = [1] + [p ** (m - j) * row[j - 1] + q**j * row[j] for j in range(1, m)] + [1]
    return row[k]


def full_subset_sum(params, n, k):
    """The elementary recursion over every e(i, j), j = k..1, for each box."""
    return full_subset_sums(params, n, k)[k]


def full_subset_sums(params, n, k):
    """e_0..e_k of the n box weights by ``full_subset_sum``'s loop."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    e = [1] + [0] * k
    for w in box_weights(params, n):
        for j in range(k, 0, -1):
            e[j] += w * e[j - 1]
    return e


def full_multiset_sum(params, n, k):
    """The complete recursion over every h(i, j), j = 1..k, in one pass over the n boxes."""
    return full_multiset_sums(params, n, k)[k]


def full_multiset_sums(params, n, k):
    """h_0..h_k of the n box weights by ``full_multiset_sum``'s loop."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = [1] + [0] * k
    for w in box_weights(params, n):
        for j in range(1, k + 1):
            h[j] += w * h[j - 1]
    return h


def horner_join(left, right, a, b, lo, k):
    """The sum over j = lo..hi of a**j * b**(k-j) * L_j * R_(k-j), as
    ``coefficients._join_scaled_halves`` takes it, by Horner in a from j = hi
    down, with a running power of b."""
    acc, b_power = 0, 1
    for x, y in zip(reversed(left), right):
        acc = acc * a + x * y * b_power
        b_power *= b
    return acc * a**lo * b ** (k - lo - len(left) + 1)


def factorial_ratio(params, n, k):
    """[n]! / ([k]! [n-k]!) with nothing cancelled."""
    coefficients._check_indices(n, k)
    denominator = term_factorial(params, k) * term_factorial(params, n - k)
    return exact_div(term_factorial(params, n), denominator)


def fraction_product(params, n, k):
    """The telescoping product with a reduced Fraction accumulated per factor."""
    coefficients._check_indices(n, k)
    p, q = params.p, params.q
    if p == q:
        return comb(n, k) * p ** (k * (n - k))
    acc = Fraction(1)
    for i in range(1, k + 1):
        denominator = p**i - q**i
        if denominator == 0:
            raise DegenerateParametersError(f"p**{i} == q**{i} for p={p}, q={q}: product route undefined")
        acc *= Fraction(p ** (n - i + 1) - q ** (n - i + 1), denominator)
    if acc.denominator != 1:
        raise DivisibilityError(acc.numerator, acc.denominator)
    return acc.numerator


def sparse_symbolic_rows(n_max):
    """Rows 0..n_max of the symbolic triangle, multiplying sparse BiPoly
    entries by monomials."""
    row = [BiPoly.one()]
    rows = [row]
    for n in range(1, n_max + 1):
        row = (
            [BiPoly.one()]
            + [BiPoly.monomial(n - k, 0) * row[k - 1] + BiPoly.monomial(0, k) * row[k] for k in range(1, n)]
            + [BiPoly.one()]
        )
        rows.append(row)
    return rows


def clear_symbolic_memos():
    coefficients._symbolic_entry.cache_clear()


def outcome(fn, *args):
    """The value of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestFrozenValues:
    def test_central_entry(self):
        assert coeff_recurrence(params_23, 4, 2) == 247
        assert coeff_factorial(params_23, 4, 2) == 247
        assert coeff_product(params_23, 4, 2) == 247
        assert coeff_partial_fractions(params_23, 4, 2) == 247
        assert coeff_symbolic(4, 2).eval(2, 3) == 247

    def test_factorial_pieces(self):
        # 6175 / (5 * 5): term factorials 1*5*19*65 over (1*5)**2
        assert coeff_factorial(params_23, 4, 2) == 6175 // 25

    def test_lambda_sums(self):
        assert coeff_lambda_subset(params_23, 3, 2) == 114
        assert coeff_lambda_multiset(params_23, 2, 2) == 19

    def test_row_zero_and_edges(self):
        assert coeff_recurrence(params_23, 0, 0) == 1
        for n in range(1, 7):
            assert coeff_recurrence(params_23, n, 0) == 1
            assert coeff_recurrence(params_23, n, n) == 1

    def test_inverse_entries(self):
        ones = SeqParams(1, 1)
        assert [coeff_inverse(ones, 4, k) for k in range(5)] == [1, -4, 6, -4, 1]
        assert coeff_inverse(params_23, 4, 2) == 988

    def test_multinomial(self):
        assert multinomial(params_23, 3, (1, 1, 1)) == 95
        assert multinomial(params_23, 4, (2,)) == 247


class TestInverseRoute:
    def test_matches_composition_sum_on_default_grid(self):
        # the default grid holds zero parameters, p == q and p == -q
        for p, q in pq_grid():
            params = SeqParams(p, q)
            for n in range(11):
                for k in range(n + 1):
                    assert coeff_inverse(params, n, k) == composition_sum_inverse(params, n, k), (p, q, n, k)

    @pytest.mark.parametrize("pq", [(2, 3), (-3, 2)])
    def test_matches_forward_substitution_past_cache_limit(self, pq, monkeypatch):
        params = SeqParams(*pq)
        order = 30
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        triangle = TriMatrix(tuple(tuple(row) for row in triangle_rows(params, order - 1)))
        got = [[coeff_inverse(params, n, k) for k in range(n + 1)] for n in range(order)]
        assert invert_triangular(triangle).rows == tuple(tuple(row) for row in got)

    @pytest.mark.parametrize("n, k, last_built", [(40, 0, 40), (40, 38, 2)])
    def test_one_pass_over_the_rows(self, n, k, last_built, monkeypatch):
        built = []
        next_row = coefficients._next_row

        def counting_next_row(prev, step):
            built.append(len(prev))
            return next_row(prev, step)

        monkeypatch.setattr(coefficients, "_next_row", counting_next_row)
        coefficients._row.cache_clear()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        # rows 0..n - k give a(n - k), and C(n, k) is walked in its window from
        # row 0, filling no memo row; at k = 0 the composition sum has 2**39 terms
        value = coeff_inverse(SeqParams(7, -5), n, k)
        assert built == list(range(1, last_built + 1))
        assert value != 0

    @pytest.mark.parametrize("pq", [(2, 3), (-3, 2), (4, -1), (3, 2)])
    def test_entry_past_the_memo_matches_the_factorial_route(self, pq):
        # a(2) = C(2, 1) - 1 = p + q - 1
        params = SeqParams(*pq)
        assert coeff_inverse(params, 300, 298) == coeff_factorial(params, 300, 2) * (sum(pq) - 1)

    def test_inverse_rows_match_entries_and_substitution(self):
        for p, q in pq_grid():
            params = SeqParams(p, q)
            rows = list(inverse_rows(params, 10))
            assert rows == [[coeff_inverse(params, n, k) for k in range(n + 1)] for n in range(11)], (p, q)
            triangle = TriMatrix(tuple(map(tuple, triangle_rows(params, 10))))
            assert invert_triangular(triangle).rows == tuple(map(tuple, rows)), (p, q)
            for n_max in range(10):
                assert list(inverse_rows(params, n_max)) == rows[: n_max + 1], (p, q, n_max)

    def test_inverse_rows_reject_a_negative_bound(self):
        with pytest.raises(ValueError):
            list(inverse_rows(params_23, -1))


class TestRewrittenRoutesAgainstReferences:
    small_grid = [
        (SeqParams(p, q, scale), n, k)
        for p in range(-3, 4)
        for q in range(-3, 4)
        for scale in (1, 2)
        for n in range(14)
        for k in range(-1, n + 2)
    ]

    def test_factorial_cancels_to_the_full_ratio(self):
        for params, n, k in self.small_grid:
            expected = outcome(factorial_ratio, params, n, k)
            assert outcome(coeff_factorial, params, n, k) == expected, (params, n, k)

    def test_product_matches_fraction_accumulation(self):
        grid = [
            (SeqParams(p, q), n, k)
            for p in range(-3, 5)
            for q in range(-3, 5)
            for n in range(14)
            for k in range(-1, n + 2)
        ]
        grid += [(SeqParams(2, 3), 600, 300), (SeqParams(3, -2), 600, 300)]
        for params, n, k in grid:
            expected = outcome(fraction_product, params, n, k)
            assert outcome(coeff_product, params, n, k) == expected, (params, n, k)

    def test_subset_band_matches_the_full_loop(self):
        # the small grid's edge cases (k = 0, k = n, k > n, an empty first half);
        # big entries whose two halves both carry a band, one of them an odd split,
        # and k = n + 1, n + 5, where no band is left to join
        big = [(SeqParams(2, 3), 101, 50), (SeqParams(-3, 2), 120, 61), (SeqParams(3, -2), 65, 33)]
        big += [(SeqParams(*pq), n, n + d) for pq in [(2, 3), (-3, 2), (0, 3)] for n in (64, 65, 100) for d in (1, 5)]
        for params, n, k in self.small_grid + [(params_23, -1, 0)] + big:
            expected = outcome(full_subset_sum, params, n, k)
            assert outcome(coeff_lambda_subset, params, n, k) == expected, (params, n, k)

    def test_multiset_split_matches_the_full_loop(self):
        # the small grid's edge cases (k = 0, k > n, an empty first half at n = 1),
        # k far above one and three boxes; big entries: odd splits (151 and 65
        # boxes) and even ones, k above the box count, and vanishing half factors
        # p**(n-h) or q**h
        extra = [
            (params_23, 1, 9),
            (params_23, 3, 20),
            (SeqParams(-3, 2), 151, 150),
            (SeqParams(2, 3), 120, 61),
            (SeqParams(3, -2), 65, 90),
            (SeqParams(0, 2), 64, 5),
            (SeqParams(2, 0), 64, 5),
            (SeqParams(2, -2), 80, 40),
        ]
        for params, n, k in self.small_grid + extra:
            expected = outcome(full_multiset_sum, params, n, k)
            assert outcome(coeff_lambda_multiset, params, n, k) == expected, (params, n, k)

    @pytest.mark.parametrize("n", [30, 31, 40, 41, 63, 64, 65, 300, 301])
    def test_shared_half_at_both_parities_matches_the_full_loop(self, n):
        # even n reads the first half's sums twice, odd n extends them by the box p**h;
        # (0, 3) and (3, 0) make p**h or q vanish, (2, -2) and (2, 2) have p = -q and p = q
        for pq in [(2, 3), (-3, 2), (0, 3), (3, 0), (2, -2), (2, 2)]:
            params = SeqParams(*pq)
            subset_sums = full_subset_sums(params, n, n // 2 + 1)
            multiset_sums = full_multiset_sums(params, n, n // 2 + 1)
            for k in (0, n // 2 - 1, n // 2, n // 2 + 1):
                assert coeff_lambda_subset(params, n, k) == subset_sums[k], (pq, n, k)
                assert coeff_lambda_multiset(params, n, k) == multiset_sums[k], (pq, n, k)

    @pytest.mark.parametrize("a, b", [(2, 3), (-3, 2), (3, -2), (-2, -3), (0, 3), (3, 0), (0, 0), (1, 1)])
    def test_join_matches_the_horner_join(self, a, b):
        # lo > 0, a single term, empty lists, and odd and even lengths up to 33 for the halving
        for length in [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33]:
            left = [3 * t - 7 for t in range(length)]
            right = [(-2) ** t + t for t in range(length)]
            for lo in (0, 1, 4):
                k = lo + length + 2
                expected = horner_join(left, right, a, b, lo, k)
                assert coefficients._join_scaled_halves(left, right, a, b, lo, k) == expected, (length, lo)

    @pytest.mark.parametrize("pq", [(2, 3), (-3, 2), (0, 2), (2, 0), (2, 2), (2, -2), (0, 0)])
    def test_recurrence_windows_past_cache_limit(self, pq, monkeypatch):
        params = SeqParams(*pq)
        coefficients._row.cache_clear()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        rows = list(triangle_rows(params, 40))
        got = [[coeff_recurrence(params, n, k) for k in range(n + 1)] for n in range(41)]
        assert got == rows
        assert got[12] == [full_row_recurrence(params, 12, k) for k in range(13)]

    def test_thin_windows_build_no_full_row(self, monkeypatch):
        built = []
        next_row = coefficients._next_row

        def counting_next_row(prev, step):
            built.append(len(prev))
            return next_row(prev, step)

        monkeypatch.setattr(coefficients, "_next_row", counting_next_row)
        coefficients._row.cache_clear()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        values = [coeff_recurrence(params_23, 400, k) for k in (0, 1, 399)]
        assert values == [1, term_closed(params_23, 400), term_closed(params_23, 400)]
        assert built == []  # each window is walked from row 0; no memo row is built

    def test_symbolic_matches_sparse_kernel(self):
        rows = sparse_symbolic_rows(24)
        for n, row in enumerate(rows):
            for k, poly in enumerate(row):
                assert coeff_symbolic(n, k) == poly, (n, k)

    def test_symbolic_past_cache_limit(self, monkeypatch):
        clear_symbolic_memos()
        rows = sparse_symbolic_rows(14)
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        got = [[coeff_symbolic(n, k) for k in range(n + 1)] for n in range(15)]
        assert got == rows
        assert coefficients._symbolic_entry.cache_info().currsize == 15  # the entries of rows 0..4

    def test_symbolic_past_cache_limit_stores_nothing(self, monkeypatch):
        clear_symbolic_memos()
        rows = sparse_symbolic_rows(14)
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        assert [coeff_symbolic(14, k) for k in range(15)] == rows[14]
        assert coeff_symbolic(9, 3) == rows[9][3]
        assert coefficients._symbolic_entry.cache_info().currsize == 0

    def test_symbolic_entry_at_the_cache_limit_builds_no_dense_row(self):
        # a thin entry at the real limit walks k + 1 = 2 entries a row, not rows 0..128 whole
        clear_symbolic_memos()
        entry = coeff_symbolic(128, 1)
        assert coefficients._symbolic_entry.cache_info().currsize == 1  # the entry alone is stored
        for pq in [(2, 3), (-3, 2), (0, 2), (2, 2)]:
            assert entry.eval(*pq) == term_closed(SeqParams(*pq), 128), pq

    def test_recurrence_past_cache_limit_fills_no_memo_row(self):
        coefficients._row.cache_clear()
        for params in (params_23, SeqParams(3, 2)):
            value = coeff_recurrence(params, 400, 398)
            assert coefficients._row.cache_info().currsize == 0
            assert value == coeff_factorial(params, 400, 398), params

    def test_memoized_entry_plans_only_when_evaluated(self):
        clear_symbolic_memos()
        entry, mirror = coeff_symbolic(45, 23), coeff_symbolic(45, 22)
        assert entry == mirror and hash(entry) == hash(mirror) and str(entry) == str(mirror)
        assert entry.terms == mirror.terms
        assert entry._plan is None and mirror._plan is None
        assert entry.eval(2, 3) == coeff_recurrence(params_23, 45, 23)
        assert coeff_symbolic(45, 23) is entry and entry._plan is not None
        assert mirror._plan is None


class TestLambdaSumsAgainstEnumeration:
    def test_subset_matches_brute_force(self):
        for p in range(-2, 4):
            for q in range(-2, 4):
                params = SeqParams(p, q)
                for n in range(7):
                    weights = box_weights(params, n)
                    for k in range(7):
                        assert coeff_lambda_subset(params, n, k) == brute_subset_sum(weights, k)

    def test_multiset_matches_brute_force(self):
        for p in range(-2, 4):
            for q in range(-2, 4):
                params = SeqParams(p, q)
                for n in range(1, 6):
                    weights = box_weights(params, n)
                    for k in range(6):
                        assert coeff_lambda_multiset(params, n, k) == brute_multiset_sum(
                            weights, k
                        )

    def test_box_weights_values(self):
        assert box_weights(params_23, 3) == [4, 6, 9]

    def test_multiset_requires_a_box(self):
        with pytest.raises(ValueError):
            coeff_lambda_multiset(params_23, 0, 2)


class TestRouteAgreement:
    @given(positive_params, positive_params, st.integers(0, 10))
    def test_factorial_vs_recurrence(self, p, q, n):
        params = SeqParams(p, q)
        for k in range(n + 1):
            assert coeff_factorial(params, n, k) == coeff_recurrence(params, n, k)

    @given(param_ints, param_ints, st.integers(0, 8))
    def test_symbolic_evaluates_to_recurrence(self, p, q, n):
        for k in range(n + 1):
            assert coeff_symbolic(n, k).eval(p, q) == coeff_recurrence(SeqParams(p, q), n, k)

    @pytest.mark.parametrize(
        "n, ks, pairs",
        [
            (30, [*range(13, 18)] * 2, pq_grid()),  # memoized entries, read twice: the second read reuses the plan
            (128, (1, 2, 126, 127), [(2, 3), (-3, 2), (0, 2), (2, 2)]),  # the memo's last row
            (140, (3, 5, 135, 137), [(2, 3), (-3, 2), (0, 2), (2, 2)]),  # past the memo
        ],
    )
    def test_symbolic_entries_at_the_memo_edges_evaluate_to_recurrence(self, n, ks, pairs):
        for k in ks:
            entry = coeff_symbolic(n, k)
            for p, q in pairs:
                assert entry.eval(p, q) == coeff_recurrence(SeqParams(p, q), n, k), (n, k, p, q)

    def test_product_route_diagonal(self):
        params = SeqParams(3, 3)
        for n in range(7):
            for k in range(n + 1):
                assert coeff_product(params, n, k) == comb(n, k) * 3 ** (k * (n - k))

    def test_route_dispatcher_covers_all_names(self):
        for route in ROUTE_NAMES:
            value = coeff_route(params_23, 4, 2, route)
            assert value == 988 if route == "inverse" else value == 247

    def test_route_dispatcher_rejects_unknown(self):
        with pytest.raises(ValueError):
            coeff_route(params_23, 4, 2, "telepathy")

    def test_subset_route_needs_nonzero_pq(self):
        with pytest.raises(DegenerateParametersError):
            coeff_route(SeqParams(0, 3), 4, 2, "subset")

    def test_multiset_route_above_diagonal(self):
        # both weight-sum routes check the indices as every route but partial fractions does
        for route in ("subset", "multiset"):
            with pytest.raises(ValueError, match="coefficient indices need 0 <= k <= n"):
                coeff_route(params_23, 2, 5, route)
        assert coeff_lambda_subset(params_23, 2, 5) == 0

    @pytest.mark.parametrize("pq", [(2, 3), (-3, 2), (3, 2)])
    def test_split_weight_sums_match_the_factorial_route(self, pq):
        # n boxes for the subset sum and n - k + 1 for the multiset sum, both split,
        # at both parities of each; past row 128 the recurrence walks its own window
        params = SeqParams(*pq)
        for n in (40, 41, 300, 301):
            k = n // 2
            expected = coeff_factorial(params, n, k)
            for route in ("subset", "multiset", "recurrence"):
                assert coeff_route(params, n, k, route) == expected, (n, route)


class TestStructuralIdentities:
    def test_complementation_symbolic(self):
        for n in range(9):
            for k in range(n + 1):
                assert coeff_symbolic(n, k) == coeff_symbolic(n, n - k)

    def test_parameter_swap_symbolic(self):
        for n in range(9):
            for k in range(n + 1):
                terms = coeff_symbolic(n, k).terms
                assert {(j, i): c for (i, j), c in terms.items()} == terms

    def test_homogeneity_degree(self):
        for n in range(9):
            for k in range(n + 1):
                assert {i + j for i, j in coeff_symbolic(n, k).terms} == {k * (n - k)}

    def test_subset_of_subset_rule(self):
        for p in range(-2, 4):
            for q in range(-2, 4):
                params = SeqParams(p, q)
                for n in range(8):
                    for m in range(n + 1):
                        for k in range(m + 1):
                            lhs = coeff_recurrence(params, n, m) * coeff_recurrence(params, m, k)
                            rhs = coeff_recurrence(params, n, k) * coeff_recurrence(
                                params, n - k, m - k
                            )
                            assert lhs == rhs

    def test_multinomial_permutation_invariant(self):
        for parts in itertools.permutations((1, 2, 3)):
            assert multinomial(params_23, 7, parts) == multinomial(params_23, 7, (1, 2, 3))

    def test_multinomial_vs_factorial_ratio(self):
        parts = (2, 1, 2)
        n = 6
        rest = n - sum(parts)
        denominator = prod(term_factorial(params_23, part) for part in parts)
        denominator *= term_factorial(params_23, rest)
        assert multinomial(params_23, n, parts) == Fraction(
            term_factorial(params_23, n), denominator
        )

    def test_scale_invariance(self):
        for scale in (1, 2, 3):
            scaled = SeqParams(2, 3, scale)
            for n in range(8):
                for k in range(n + 1):
                    assert coeff_factorial(scaled, n, k) == coeff_recurrence(params_23, n, k)


class TestPartialFractions:
    def test_zero_strip(self):
        for n in range(3):
            assert coeff_partial_fractions(params_23, n, 3) == 0

    def test_negative_index_rational(self):
        assert coeff_partial_fractions(params_23, -1, 1) == Fraction(-1, 6)

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParametersError):
            coeff_partial_fractions(SeqParams(2, 2), 4, 2)
        with pytest.raises(DegenerateParametersError):
            coeff_partial_fractions(SeqParams(-2, 2), 4, 2)
        with pytest.raises(DegenerateParametersError):
            coeff_partial_fractions(SeqParams(0, 2), 4, 2)

    def test_negation_laws(self):
        """The values at n < 0 against two laws: upper negation,
        C(-n, k) = (-1)**k (pq)**-(nk + C(k, 2)) C(n + k - 1, k), read against
        the recurrence triangle, and the triangle recurrence itself below 0."""
        failures, checked = [], 0
        for p, q in pq_grid():
            if p * q == 0:
                continue
            params = SeqParams(p, q)
            rows = list(triangle_rows(params, 10))
            columns = {}  # k: {n: C(n, k)} for n = -6..0, where the nodes are distinct
            for k in range(6):
                try:
                    columns[k] = dict(zip(range(-6, 1), partial_fraction_column(params, k, range(-6, 1))))
                except DegenerateParametersError:
                    continue
            for k, column in columns.items():
                for n in range(1, 7):
                    negated = (-1) ** k * Fraction(rows[n + k - 1][k]) / Fraction(p * q) ** (n * k + k * (k - 1) // 2)
                    checked += 1
                    if column[-n] != negated:
                        failures.append(("negation", p, q, n, k))
                if k - 1 in columns:
                    for n in range(-5, 1):
                        recurrence = Fraction(p) ** (n - k) * columns[k - 1][n - 1] + Fraction(q) ** k * column[n - 1]
                        checked += 1
                        if column[n] != recurrence:
                            failures.append(("recurrence", p, q, n, k))
        assert failures == []
        assert checked == 1788

    def test_matches_a_termwise_fraction_sum(self):
        """The one-denominator sum equals the partial fractions summed term
        by term in Fractions, negative n and k >= 2 included."""
        compared = 0
        for p, q in itertools.product(range(-3, 5), repeat=2):
            for k in range(7):
                nodes = [q**s * p ** (k - s) for s in range(k + 1)]
                if p == q or len(set(nodes)) <= k:
                    continue
                denominators = [
                    prod(node - nodes[j] for j in range(i)) * prod(nodes[j] - node for j in range(i + 1, k + 1))
                    for i, node in enumerate(nodes)
                ]
                for n in range(-4, 11):
                    if n < 0 and 0 in nodes:
                        continue
                    reference = sum(
                        (-1) ** (k - i) * Fraction(node) ** n / denominator
                        for i, (node, denominator) in enumerate(zip(nodes, denominators))
                    )
                    assert coeff_partial_fractions(SeqParams(p, q), n, k) == reference, (p, q, n, k)
                    compared += n < 0 and k >= 2
        assert compared > 300

    def test_degenerate_cases_still_raise(self):
        for p, q in itertools.product(range(-3, 5), repeat=2):
            params = SeqParams(p, q)
            for k in range(7):
                nodes = [q**s * p ** (k - s) for s in range(k + 1)]
                for n in range(-4, 11):
                    if p == q:
                        match = "partial fractions undefined"
                    elif len(set(nodes)) <= k:
                        match = "coincident nodes"
                    elif n < 0 and 0 in nodes:
                        match = "negative power of a zero node"
                    else:
                        continue
                    with pytest.raises(DegenerateParametersError, match=match):
                        coeff_partial_fractions(params, n, k)

    def test_agrees_with_recurrence(self):
        for p, q in ((1, 2), (2, 3), (-1, 2), (3, 1), (-2, -3)):
            params = SeqParams(p, q)
            for n in range(8):
                for k in range(n + 1):
                    assert coeff_partial_fractions(params, n, k) == coeff_recurrence(
                        params, n, k
                    )


class TestPrintedRows:
    """``printed_rows`` prints as ``triangle_rows``: its int rows up to the
    first row whose middle entry passes ``_DECIMAL_BITS``, exact ``Decimal``
    rows after it, and the exact context never reaches the caller."""

    def test_cells_print_as_the_int_rows(self):
        crossed = 0
        for p, q in PQ_GRID:  # p = -q holds zeros at odd k of even rows; none may print as -0
            params = SeqParams(p, q)
            printed = list(coefficients.printed_rows(params, 70))
            crossed += isinstance(printed[-1][0], decimal.Decimal)
            for row, ints in zip(printed, triangle_rows(params, 70), strict=True):
                assert list(map(str, row)) == list(map(str, ints)), (p, q, len(row) - 1)
        assert crossed == 40  # of the 49 pairs

    def test_memo_rows_then_decimal_rows(self):
        rows = list(coefficients.printed_rows(SeqParams(3, -2), 70))
        switch = next(n for n, row in enumerate(rows) if isinstance(row[0], decimal.Decimal)) - 1
        assert rows[switch][switch // 2].bit_length() > coefficients._DECIMAL_BITS
        assert rows[switch - 1][(switch - 1) // 2].bit_length() <= coefficients._DECIMAL_BITS
        assert all(row is coefficients._row(3, -2, n) for n, row in enumerate(rows[: switch + 1]))
        assert all(isinstance(value, decimal.Decimal) for row in rows[switch + 1 :] for value in row)

    def test_exact_context_stays_inside(self):
        context = decimal.getcontext()
        assert context.prec == 28
        rows = coefficients.printed_rows(SeqParams(3, 2), 70)
        for _ in range(61):  # past the switch
            row = next(rows)
        assert isinstance(row[1], decimal.Decimal)
        assert decimal.getcontext() is context and context.prec == 28
        next(rows)
        assert decimal.getcontext() is context and context.prec == 28
        assert len(list(rows)) == 70 - 61
        assert decimal.getcontext() is context and context.prec == 28

    def test_row_past_the_int_to_str_digit_limit(self):
        *_, last = coefficients.printed_rows(SeqParams(3, 2), 200)
        *_, int_row = triangle_rows(SeqParams(3, 2), 200)
        assert len(str(last[100])) > 4300
        assert list(map(str, last)) == list(map(decimal_str, int_row))


class TestMirroredEntriesShared:
    """Each row keeps C(n, k) and C(n, n - k) as one object, and the sharing
    step only compares: it never makes an asymmetric row symmetric."""

    @staticmethod
    def assert_shared(row):
        assert all(row[k] is row[-1 - k] for k in range(len(row))), row

    def test_cached_numeric_rows(self):
        coefficients._row.cache_clear()
        coeff_recurrence(SeqParams(4, 3), 128, 0)
        assert coefficients._row.cache_info().currsize == 129
        for n in range(129):
            self.assert_shared(coefficients._row(4, 3, n))

    def test_rows_past_the_cache(self):
        rows = list(triangle_rows(SeqParams(4, 3), 140))
        assert rows[140] == [coeff_recurrence(SeqParams(4, 3), 140, k) for k in range(141)]
        for row in rows[129:]:
            self.assert_shared(row)

    @pytest.mark.parametrize("n", range(4))
    def test_rows_zero_to_three(self, n):
        symmetric = [10**30 + min(k, n - k) for k in range(n + 1)]
        assert coefficients._share_mirrored(symmetric) == [10**30 + min(k, n - k) for k in range(n + 1)]
        self.assert_shared(symmetric)
        if n:
            asymmetric = [10**30 + k for k in range(n + 1)]
            before = list(asymmetric)
            assert coefficients._share_mirrored(asymmetric) is asymmetric
            assert all(x is y for x, y in zip(asymmetric, before, strict=True))

    def test_asymmetric_row_is_not_repaired(self):
        row = [10**30 + v for v in (0, 7, 8, 0)]  # the ends agree, the middle does not
        before = list(row)
        assert coefficients._share_mirrored(row) == before
        assert all(x is y for x, y in zip(row, before, strict=True))
        assert row[0] is not row[3]

    def test_shared_rows_take_at_most_six_tenths_of_the_memory(self, monkeypatch):
        def traced_size_of_rows():
            tracemalloc.start()
            try:
                rows, step = [[1]], functools.partial(coefficients._int_step, 4, 3)
                for _ in range(128):
                    rows.append(coefficients._next_row(rows[-1], step))
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        shared = traced_size_of_rows()
        monkeypatch.setattr(coefficients, "_share_mirrored", lambda row: row)
        assert shared <= 0.6 * traced_size_of_rows()


class TestErrorsAndCache:
    def test_factorial_route_undefined_on_vanishing_terms(self):
        # 2_T = 0 at p = -1, q = 1, so any factorial with n >= 2 divides by zero
        with pytest.raises(DivisibilityError):
            coeff_factorial(SeqParams(-1, 1), 4, 2)

    def test_indices_validated(self):
        with pytest.raises(ValueError):
            coeff_recurrence(params_23, 3, 4)
        with pytest.raises(ValueError):
            coeff_recurrence(params_23, -1, 0)

    def test_queries_beyond_cache_limit_still_correct(self, monkeypatch):
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        assert coeff_recurrence(params_23, 10, 5) == coeff_factorial(params_23, 10, 5)
        assert coeff_symbolic(9, 4).eval(2, 3) == coeff_factorial(params_23, 9, 4)

    def test_triangle_rows_across_cache_limit(self, monkeypatch):
        params = SeqParams(-3, 5)
        coefficients._row.cache_clear()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        assert list(triangle_rows(params, 4)) == [
            [coeff_recurrence(params, n, k) for k in range(n + 1)] for n in range(5)
        ]
        cached = [coefficients._row(-3, 5, n) for n in range(5)]
        snapshot = copy.deepcopy(cached)
        rows = list(triangle_rows(params, 12))
        assert rows == [
            [coeff_recurrence(params, n, k) for k in range(n + 1)] for n in range(13)
        ]
        assert cached == snapshot
        assert coefficients._row.cache_info().currsize == 5

    def test_cached_pairs_stay_bounded(self):
        memo = coefficients._row
        memo.cache_clear()
        bound = memo.cache_info().maxsize
        assert bound == coefficients._MAX_PAIRS * (coefficients._CACHE_LIMIT + 1)
        pairs = [(p, q) for p in range(-20, 20) for q in range(-12, 13)]
        assert len(pairs) == 1000
        first_rows = {}
        for p, q in pairs:  # 13 rows a pair, so the memo fills and then evicts
            first_rows[(p, q)] = list(triangle_rows(SeqParams(p, q), 12))
            assert memo.cache_info().currsize <= bound
        assert memo.cache_info().currsize == bound
        # the rows of the most recent pairs are held, and read without a rebuild
        hits, misses = memo.cache_info()[:2]
        recent = pairs[-(bound // 13) :]
        for p, q in recent:
            params = SeqParams(p, q)
            assert [[coeff_recurrence(params, n, k) for k in range(n + 1)] for n in range(13)] == first_rows[(p, q)]
        assert memo.cache_info()[:2] == (hits + 91 * len(recent), misses)
        for p, q in pairs[-64:]:
            assert first_rows[(p, q)][12][6] == coeff_factorial(SeqParams(p, q), 12, 6)
        # evicted rows are rebuilt on demand, with the same values
        for p, q in pairs[::37]:
            params = SeqParams(p, q)
            assert [[coeff_recurrence(params, n, k) for k in range(n + 1)] for n in range(13)] == first_rows[(p, q)]
        assert memo.cache_info().misses > misses
        assert memo.cache_info().currsize == bound

    def test_default_sweeps_evict_no_pair(self):
        memo = coefficients._row
        memo.cache_clear()
        run_verify("all")
        run_oracle("all")
        # every row built is still held: none was evicted
        assert memo.cache_info().currsize == memo.cache_info().misses

    def test_cached_rows_still_validate_indices(self, monkeypatch):
        params = SeqParams(6, -5)
        coefficients._row.cache_clear()
        coeff_recurrence(params, 10, 0)
        assert coefficients._row.cache_info().currsize == 11
        for n, k in ((5, -1), (5, 6), (-1, 0), (-1, -1)):
            with pytest.raises(ValueError):
                coeff_recurrence(params, n, k)

    def test_concurrent_reads_of_a_fresh_pair(self, monkeypatch):
        params = SeqParams(-7, 4)
        coefficients._row.cache_clear()
        barrier = threading.Barrier(4)
        results = [None] * 4

        # past the cache limit every read rebuilds its row, so read a few columns
        columns = [(n, k) for n in range(61) for k in sorted({0, n // 3, n // 2, n})]

        def read(slot):
            barrier.wait(timeout=10)
            results[slot] = [coeff_recurrence(params, n, k) for n, k in columns]

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
        switch_interval = sys.getswitchinterval()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 16)
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        rows = list(triangle_rows(params, 60))
        assert results == [[rows[n][k] for n, k in columns]] * 4

    def test_concurrent_reads_while_pairs_are_evicted(self, monkeypatch):
        # the same memo with room for 60 rows, so rows are evicted while others are read
        memo = functools.lru_cache(maxsize=60)(coefficients._row.__wrapped__)
        monkeypatch.setattr(coefficients, "_row", memo)
        barrier = threading.Barrier(4)
        results = [None] * 4
        # 4 x 40 distinct pairs of 13 rows each
        slots = [[(p, q) for p in range(1, 5) for q in range(10 * slot + 1, 10 * slot + 11)] for slot in range(4)]
        columns = [(n, k) for n in range(13) for k in range(n + 1)]

        def read(slot):
            barrier.wait(timeout=10)
            results[slot] = [coeff_recurrence(SeqParams(p, q), n, k) for p, q in slots[slot] for n, k in columns]

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert memo.cache_info().currsize == 60
        for slot in range(4):
            expected = [coeff_factorial(SeqParams(p, q), n, k) for p, q in slots[slot] for n, k in columns]
            assert results[slot] == expected

    def test_memoized_symbolic_entries_still_validate_indices(self):
        for n in range(11):
            for k in range(n + 1):
                coeff_symbolic(n, k)
        for n, k in ((5, -1), (5, 6), (-1, 0), (-1, -1)):
            with pytest.raises(ValueError):
                coeff_symbolic(n, k)

    def test_concurrent_reads_of_a_fresh_symbolic_triangle(self, monkeypatch):
        clear_symbolic_memos()
        barrier = threading.Barrier(4)
        results = [None] * 4

        # past the cache limit every read rebuilds its rows, so read a few columns
        columns = [(n, k) for n in range(31) for k in sorted({0, n // 3, n // 2, n})]

        def read(slot):
            barrier.wait(timeout=10)
            results[slot] = [coeff_symbolic(n, k) for n, k in columns]

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
        switch_interval = sys.getswitchinterval()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 16)
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        rows = sparse_symbolic_rows(30)
        assert results == [[rows[n][k] for n, k in columns]] * 4

    def test_triangle_rows_validation(self):
        assert list(triangle_rows(params_23, 0)) == [[1]]
        with pytest.raises(ValueError):
            list(triangle_rows(params_23, -1))

    def test_multinomial_validation(self):
        with pytest.raises(ValueError):
            multinomial(params_23, 3, (2, 2))
        with pytest.raises(ValueError):
            multinomial(params_23, 3, (-1, 2))


def _outcome(call, *args):
    """What a call returns, or the type and arguments of what it raises."""
    try:
        return call(*args)
    except Exception as error:
        return type(error), error.args


ROW_FORMS = {  # route: (row form, point form of one entry)
    "subset": (lambda_subset_row, coeff_lambda_subset),
    "multiset": (lambda_multiset_row, coeff_lambda_multiset),
    "factorial": (factorial_row, coeff_factorial),
}


class TestRowForms:
    @pytest.mark.parametrize("route", sorted(ROW_FORMS))
    def test_row_form_equals_point_form(self, route):
        # entry by entry where every entry is defined; where some entry of a
        # row raises, the row raises what the first such entry raises
        row_of, point_of = ROW_FORMS[route]
        for p, q in pq_grid():
            params = SeqParams(p, q)
            for n in range(-1, 15):
                points = [_outcome(point_of, params, n, k) for k in range(max(n, 0) + 1)]
                errors = [point for point in points if isinstance(point, tuple)]
                assert _outcome(row_of, params, n) == (errors[0] if errors else points), (p, q, n)

    def test_product_row_stops_where_the_point_form_raises(self):
        # entry by entry up to the first k with p**k == q**k; the point form
        # raises DegenerateParametersError there and at every k past it
        for p, q in pq_grid():
            params = SeqParams(p, q)
            for n in range(-1, 15):
                points = [_outcome(coeff_product, params, n, k) for k in range(max(n, 0) + 1)]
                row = _outcome(product_row, params, n)
                if n < 0:
                    assert row == points[0]
                    continue
                stop = next((k for k in range(1, n + 1) if p != q and p**k == q**k), n + 1)
                assert row == points[:stop], (p, q, n)
                assert all(point[0] is DegenerateParametersError for point in points[stop:]), (p, q, n)
        assert product_row(SeqParams(2, -2), 5) == [1, coeff_product(SeqParams(2, -2), 5, 1)]
        assert product_row(SeqParams(-1, -1), 4) == [comb(4, k) * (-1) ** (k * (4 - k)) for k in range(5)]

    def test_partial_fraction_column_equals_point_form(self):
        # entry by entry, n < k and negative n included; where some entry of
        # a column raises, the column raises what the first such entry raises
        for p, q in pq_grid():
            params = SeqParams(p, q)
            for k in range(-1, 13):
                for ns in (range(-3, 15), range(15), [k, 0, 14, -1]):
                    points = [_outcome(coeff_partial_fractions, params, n, k) for n in ns]
                    errors = [point for point in points if isinstance(point, tuple)]
                    expected = errors[0] if errors else points
                    assert _outcome(partial_fraction_column, params, k, ns) == expected, (p, q, k, ns)
        assert partial_fraction_column(params_23, 3, []) == []

    def test_rows_that_raise(self):
        zero_by_zero = (DivisibilityError, ("0 is not exactly divisible by 0",))
        assert _outcome(factorial_row, SeqParams(-1, 1), 2) == zero_by_zero
        assert factorial_row(SeqParams(-1, 1), 1) == [1, 1]
        assert _outcome(lambda_multiset_row, params_23, 0) == (ValueError, ("n must be positive",))
        assert lambda_subset_row(params_23, 0) == [1]
