"""Identity checkers: product expansions, convolution, orthogonality,
fibonomials and the Gaussian specialization."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnomial import identities, suites
from tnomial.coefficients import coeff_partial_fractions, coeff_recurrence, coeff_symbolic, triangle_rows
from tnomial.errors import DegenerateParametersError, IdentityViolation
from tnomial.identities import (
    _orthogonal_at,
    alpha_fibonacci,
    binomial_like,
    equal1_check,
    expand_multiset_gf,
    expand_split_gf,
    expand_subset_gf,
    fibonomial,
    fibonomial_suite,
    gaussian_basis_check,
    gaussian_explicit,
    gaussian_inverse_entry,
    orthogonality,
    vandermonde,
    vandermonde_terms,
)
from tnomial.rings import BiPoly, QuadElem, series_product
from tnomial.sequences import SeqParams
from tnomial.suites import pq_grid

params_23 = SeqParams(2, 3)


class TestProductExpansions:
    def test_subset_expansion_frozen(self):
        assert expand_subset_gf(2, params_23, 5).coefficients == (1, -5, 6, 0, 0)

    def test_multiset_expansion_frozen(self):
        # for two boxes the k-th coefficient is the (k+1)-st sequence term
        assert expand_multiset_gf(2, 5, params_23).coefficients == (1, 5, 19, 65, 211)

    def test_split_expansion_frozen(self):
        assert expand_split_gf(3, params_23).coefficients == (8, -38, 57, -27)

    def test_symbolic_subset_expansion(self):
        coeffs = expand_subset_gf(2).coefficients
        p, q = BiPoly.var_p(), BiPoly.var_q()
        assert coeffs[0] == BiPoly.one()
        assert coeffs[1] == -(p + q)
        assert coeffs[2] == p * q

    def test_negative_order_raises(self):
        # no series is built per factor, so the product itself must refuse
        for n in (0, 3):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                expand_subset_gf(n, params_23, -2)

    def test_expansions_run_over_grid(self):
        for p in range(-2, 5):
            for q in range(-2, 5):
                params = SeqParams(p, q)
                for n in range(6):
                    expand_subset_gf(n, params)
                    expand_split_gf(n, params)
                    if n >= 1:
                        expand_multiset_gf(n, 8, params)

    def test_subset_times_multiset_is_one(self):
        from tnomial.rings import XSeries

        for n in range(1, 7):
            a = expand_subset_gf(n, params_23, 9)
            b = expand_multiset_gf(n, 9, params_23)
            assert a * b == XSeries.one(9)


EVAL_POINTS = ((2, 3), (-3, 2), (0, 2), (2, 2))


def _evaluated(series, p, q):
    return [c.eval(p, q) for c in series.coefficients]


class TestSymbolicMatchesNumeric:
    """Each product, expanded over Z[p, q] and evaluated at (p, q), equals
    its expansion over the integers at (p, q), coefficient by coefficient."""

    @pytest.mark.parametrize("p, q", EVAL_POINTS)
    def test_gf_expansions(self, p, q):
        params = SeqParams(p, q)
        for n in range(7):
            for order in (n + 1, n + 3):
                pairs = [
                    (expand_subset_gf(n, None, order), expand_subset_gf(n, params, order)),
                    (expand_split_gf(n, None, order), expand_split_gf(n, params, order)),
                ]
                if n >= 1:
                    pairs.append((expand_multiset_gf(n, order, None), expand_multiset_gf(n, order, params)))
                for symbolic, numeric in pairs:
                    assert _evaluated(symbolic, p, q) == list(numeric.coefficients)

    @pytest.mark.parametrize("p, q", EVAL_POINTS)
    def test_binomial_expansions(self, p, q, monkeypatch):
        products = []

        def recorded(*args, **kwargs):
            products.append(series_product(*args, **kwargs))
            return products[-1]

        monkeypatch.setattr(identities, "series_product", recorded)
        for n in range(1, 7):
            for form in ("y_weights", "split"):
                assert binomial_like(n, form) and binomial_like(n, form, SeqParams(p, q))
                symbolic, numeric = products[-2:]
                assert _evaluated(symbolic, p, q) == list(numeric.coefficients)
        assert len(products) == 24


P, Q = BiPoly.var_p(), BiPoly.var_q()

# (identity, call, weight, entry): with the coefficient at k = 2 off by one,
# the check fails at (5, 2) with lhs weight * C(entry) and rhs weight * (C(entry) + 1).
CORRUPTED = {
    "subset-gf": (lambda params: expand_subset_gf(5, params), lambda p, q: p * q, (5, 2)),
    "multiset-gf": (lambda params: expand_multiset_gf(5, 4, params), lambda p, q: 1, (6, 2)),
    "split-gf": (lambda params: expand_split_gf(5, params), lambda p, q: q * p**3, (5, 2)),
    "binomial-like/y_weights": (lambda params: binomial_like(5, "y_weights", params), lambda p, q: q * p, (5, 2)),
    "binomial-like/split": (lambda params: binomial_like(5, "split", params), lambda p, q: q * p**3, (5, 2)),
}


class TestCorruptedCoefficients:
    @pytest.mark.parametrize("identity", CORRUPTED)
    @pytest.mark.parametrize("params", [None, params_23, SeqParams(-3, 2)], ids=["symbolic", "2,3", "-3,2"])
    def test_violation_fields(self, identity, params, monkeypatch):
        call, weight, entry = CORRUPTED[identity]

        def off_by_one(coeff):
            return lambda *args: coeff(*args) + (args[-1] == 2)

        monkeypatch.setattr(identities, "coeff_recurrence", off_by_one(coeff_recurrence))
        monkeypatch.setattr(identities, "coeff_symbolic", off_by_one(coeff_symbolic))
        if params is None:
            w, true = weight(P, Q), coeff_symbolic(*entry)
        else:
            w, true = weight(params.p, params.q), coeff_recurrence(params, *entry)
        with pytest.raises(IdentityViolation) as excinfo:
            call(params)
        err = excinfo.value
        assert (err.identity, err.location) == (identity, (5, 2))
        assert err.lhs == w * true
        assert err.rhs == w * (true + 1)


class TestBinomialLike:
    def test_both_forms_symbolic(self):
        for n in range(1, 7):
            assert binomial_like(n, "y_weights")
            assert binomial_like(n, "split")

    def test_numeric_params(self):
        for p, q in ((2, 3), (-1, 2), (0, 3), (2, 2)):
            for n in range(1, 6):
                assert binomial_like(n, "y_weights", SeqParams(p, q))
                assert binomial_like(n, "split", SeqParams(p, q))

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            binomial_like(3, "transposed")


class TestOrthogonality:
    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 7), st.integers(1, 7))
    def test_holds(self, p, q, n, s):
        assert orthogonality(SeqParams(p, q), n, s)

    def test_dot_product_is_series_coefficient(self):
        # orthogonality reads coefficient s of the product as one dot product.
        for p, q in pq_grid():
            params = SeqParams(p, q)
            for n in range(1, 9):
                for s in range(1, 9):
                    subset = expand_subset_gf(n, params, s + 1)
                    multiset = expand_multiset_gf(n, s + 1, params)
                    dot = sum(subset[i] * multiset[s - i] for i in range(s + 1))
                    assert dot == (subset * multiset)[s], (p, q, n, s)

    def test_equals_the_check_on_series_expanded_once(self):
        # the orthogonality suite expands each n's series once, to order 9,
        # and reads rows 0..15 of the triangle once per pair
        for p, q in pq_grid():
            params = SeqParams(p, q)
            rows = list(triangle_rows(params, 15))
            for n in range(1, 9):
                subset = expand_subset_gf(n, params, 9)
                multiset = expand_multiset_gf(n, 9, params)
                for s in range(1, 9):
                    expected = _orthogonal_at(params, n, s, subset, multiset, rows)
                    assert orthogonality(params, n, s) is expected, (p, q, n, s)

    def test_row_reading_equals_the_point_wise_form(self):
        # On the true triangle and on triangles with one entry off by one, the
        # check on rows reads the entries the point-wise check reads.
        refuted = 0
        for p, q in pq_grid():
            params = SeqParams(p, q)
            rows = list(triangle_rows(params, 15))
            series = {n: (expand_subset_gf(n, params, 9), expand_multiset_gf(n, 9, params)) for n in range(1, 9)}
            for corrupt in (None, (3, 1), (5, 2), (7, 0), (8, 4), (9, 3), (11, 5)):
                corrupted = [list(row) for row in rows]
                if corrupt is not None:
                    corrupted[corrupt[0]][corrupt[1]] += 1
                for n in range(1, 9):
                    for s in range(1, 9):
                        got = _orthogonal_at(params, n, s, *series[n], corrupted)
                        reference = _point_wise_orthogonal_at(params, n, s, *series[n], corrupted)
                        assert got is reference, (p, q, corrupt, n, s)
                        refuted += not got
        assert refuted > 1000


def _point_wise_orthogonal_at(params, n, s, subset, multiset, rows):
    """The orthogonality checks at s as written entry by entry, with one
    single-entry read ``coeff(n, k)`` per C(n, k) where the form before
    row reading called ``coeff_recurrence``; the entries come from ``rows``
    so that a corrupted triangle reaches both forms."""

    def coeff(n, k):
        return rows[n][k]

    p, q = params.p, params.q
    direct = sum(
        (-1) ** k * (p * q) ** ((k * (k - 1)) // 2) * coeff(n, k) * coeff(n + s - k - 1, n - 1)
        for k in range(min(n, s) + 1)
    )
    ok = direct == 0 and subset[0] * multiset[0] == 1
    ok = ok and sum(subset[i] * multiset[s - i] for i in range(s + 1)) == 0
    if s == n:
        reversed_form = sum(
            coeff(n + k - 1, k) * (-1) ** (n - k) * (p * q) ** (((n - k) * (n - k - 1)) // 2) * coeff(n, k)
            for k in range(n + 1)
        )
        ok = ok and reversed_form == 0
    return ok


def _point_wise_vandermonde_terms(params, n, m, k):
    """``vandermonde_terms`` from single ``coeff_recurrence`` entries."""
    p, q = params.p, params.q
    rhs_proof = rhs_plain = 0
    for s in range(max(0, k - m), min(k, n) + 1):
        base = coeff_recurrence(params, n, s) * coeff_recurrence(params, m, k - s) * q ** ((n - s) * (k - s))
        rhs_proof += p ** ((m + s - k) * s) * base
        rhs_plain += p ** (m + s - k) * base
    return coeff_recurrence(params, n + m, k), rhs_proof, rhs_plain


class TestVandermonde:
    def test_row_reading_equals_the_point_wise_form(self):
        for p, q in pq_grid():
            params = SeqParams(p, q)
            for n in range(6):
                for m in range(6):
                    for k in range(n + m + 1):
                        reference = _point_wise_vandermonde_terms(params, n, m, k)
                        assert vandermonde_terms(params, n, m, k) == reference, (p, q, n, m, k)
            notes = []
            points = list(suites._vandermonde_points([(p, q)], 5, notes))
            reference = [
                (p, q, n, m, k, lhs, rhs_proof)
                for n in range(6)
                for m in range(6)
                for k in range(n + m + 1)
                for lhs, rhs_proof, _ in [_point_wise_vandermonde_terms(params, n, m, k)]
            ]
            assert points == reference, (p, q)

    def test_frozen_resolution(self):
        assert vandermonde_terms(params_23, 2, 2, 2) == (247, 247, 235)

    def test_single_point_report(self):
        report = vandermonde(params_23, 2, 2, 2)
        assert report.holds
        assert any("235" in note for note in report.notes)

    def test_proof_exponent_matches_convolution(self):
        for p, q in ((1, 2), (2, 3), (3, 1), (1, 1)):
            params = SeqParams(p, q)
            for n in range(5):
                for m in range(5):
                    for k in range(n + m + 1):
                        lhs, rhs_proof, _ = vandermonde_terms(params, n, m, k)
                        assert lhs == coeff_recurrence(params, n + m, k)
                        assert rhs_proof == lhs


class TestUnitSum:
    def test_exactly_one(self):
        for k in range(9):
            assert equal1_check(params_23, k)
        assert coeff_partial_fractions(params_23, 5, 5) == 1

    def test_degenerate_parameters_raise(self):
        with pytest.raises(DegenerateParametersError):
            equal1_check(SeqParams(2, 2), 3)
        with pytest.raises(DegenerateParametersError):
            equal1_check(SeqParams(-2, 2), 2)


class TestFibonomial:
    def test_alpha_fibonacci_values(self):
        assert [alpha_fibonacci(1, n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
        assert [alpha_fibonacci(2, n) for n in range(7)] == [0, 1, 2, 5, 12, 29, 70]

    def test_fibonomial_values(self):
        assert fibonomial(1, 5, 2) == 15
        assert fibonomial(2, 3, 1) == 5
        assert fibonomial(1, 6, 3) == 60

    def test_fibonomial_matches_termwise_factorials(self):
        for alpha in (1, 2, 3):
            fact = [1]
            for i in range(1, 25):
                fact.append(fact[-1] * alpha_fibonacci(alpha, i))
            for n in range(25):
                for k in range(n + 1):
                    assert fibonomial(alpha, n, k) * fact[k] * fact[n - k] == fact[n]

    def test_fibonomial_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            fibonomial(0, 3, 1)

    def test_suites_hold(self):
        assert fibonomial_suite(1, 10).holds
        assert fibonomial_suite(2, 8).holds

    def test_suite_bounds(self):
        assert fibonomial_suite(1, 0).status == "vacuous"
        with pytest.raises(ValueError):
            fibonomial_suite(1, -1)
        with pytest.raises(ValueError):
            fibonomial_suite(0, 3)

    def test_root_difference_closed_form(self):
        # t**n - (alpha - t)**n collapses to f(n) * (2t - alpha)
        for alpha in (1, 2, 3):
            t = QuadElem.root(alpha)
            s = QuadElem.conjugate_root(alpha)
            spread = 2 * t - alpha
            for n in range(13):
                f_n = alpha_fibonacci(alpha, n)
                assert t**n - s**n == spread * QuadElem.from_int(f_n, alpha)


class TestGaussian:
    def test_explicit_sum_frozen(self):
        assert gaussian_explicit(2, 4, 2) == 35
        assert gaussian_explicit(3, 4, 2) == 130

    def test_explicit_matches_triangle(self):
        for q_val in (2, 3, -2):
            params = SeqParams(1, q_val)
            for n in range(7):
                for k in range(n + 1):
                    assert gaussian_explicit(q_val, n, k) == coeff_recurrence(params, n, k)

    def test_degenerate_bases_raise(self):
        with pytest.raises(DegenerateParametersError):
            gaussian_explicit(1, 4, 2)
        with pytest.raises(DegenerateParametersError):
            gaussian_explicit(-1, 4, 2)

    def test_inverse_entries(self):
        assert [gaussian_inverse_entry(2, 4, k) for k in range(5)] == [64, -120, 70, -15, 1]

    def test_power_basis_conversion(self):
        for q_val in (2, 3):
            for n in range(6):
                assert gaussian_basis_check(q_val, n)


class TestViolationReporting:
    def test_identity_violation_fields(self):
        err = IdentityViolation("some-check", (4, 2), 7, 8)
        assert err.identity == "some-check"
        assert err.location == (4, 2)
        assert err.lhs == 7
        assert err.rhs == 8
        assert "some-check" in str(err)
