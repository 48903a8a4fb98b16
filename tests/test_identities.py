"""Identity checkers: product expansions, convolution, orthogonality,
fibonomials and the Gaussian specialization."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tnomial import suites
from tnomial.coefficients import coeff_partial_fractions, coeff_recurrence, coeff_symbolic, triangle_rows
from tnomial.errors import DegenerateParametersError
from tnomial.identities import (
    _orthogonal_sums,
    _vandermonde_at,
    alpha_fibonacci,
    expand_multiset_gf,
    expand_split_gf,
    expand_subset_gf,
    gaussian_basis,
    gaussian_explicit,
    gaussian_inverse_entry,
)
from tnomial.report import sweep
from tnomial.rings import BiPoly, QuadElem, XSeries, exact_div, series_product
from tnomial.sequences import SeqParams
from tnomial.suites import fibonomial_suite, pq_grid

params_23 = SeqParams(2, 3)
SYMBOLIC = SeqParams(BiPoly.var_p(), BiPoly.var_q())  # the expansions over Z[p, q]


class TestProductExpansions:
    def test_subset_expansion_frozen(self):
        assert expand_subset_gf(2, params_23, 5) == (1, -5, 6, 0, 0)

    def test_multiset_expansion_frozen(self):
        # for two boxes the k-th coefficient is the (k+1)-st sequence term
        assert expand_multiset_gf(2, 5, params_23) == (1, 5, 19, 65, 211)

    def test_split_expansion_frozen(self):
        assert expand_split_gf(3, params_23) == (8, -38, 57, -27)

    def test_symbolic_subset_expansion(self):
        coeffs = expand_subset_gf(2, SYMBOLIC)
        p, q = BiPoly.var_p(), BiPoly.var_q()
        assert coeffs[0] == BiPoly.one()
        assert coeffs[1] == -(p + q)
        assert coeffs[2] == p * q

    def test_negative_order_raises(self):
        # no series is built per factor, so the product itself must refuse
        for n in (0, 3):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                expand_subset_gf(n, params_23, -2)

    def test_expansions_match_their_coefficient_formulas_over_grid(self):
        for p, q in pq_grid():
            params = SeqParams(p, q)
            for n in range(6):
                row = [coeff_recurrence(params, n, k) for k in range(n + 1)]
                subset = [(-1) ** k * (p * q) ** (k * (k - 1) // 2) * c for k, c in enumerate(row)]
                split = [
                    (-1) ** k * q ** (k * (k - 1) // 2) * p ** ((n - k) * (n - k - 1) // 2) * c
                    for k, c in enumerate(row)
                ]
                assert list(expand_subset_gf(n, params, n + 3)) == subset + [0, 0], (p, q, n)
                assert list(expand_split_gf(n, params)) == split, (p, q, n)
                if n >= 1:
                    multiset = [coeff_recurrence(params, n + k - 1, k) for k in range(8)]
                    assert list(expand_multiset_gf(n, 8, params)) == multiset, (p, q, n)

    def test_subset_times_multiset_is_one(self):
        for n in range(1, 7):
            a = expand_subset_gf(n, params_23, 9)
            b = expand_multiset_gf(n, 9, params_23)
            assert XSeries(a) * XSeries(b) == XSeries((1, 0, 0, 0, 0, 0, 0, 0, 0))

    @pytest.mark.parametrize(
        "params",
        [SeqParams(QuadElem.root(alpha), QuadElem.conjugate_root(alpha)) for alpha in (1, 2, 3)] + [SYMBOLIC],
        ids=["alpha=1", "alpha=2", "alpha=3", "symbolic"],
    )
    def test_every_coefficient_lies_in_the_ring_of_params(self, params):
        # coefficient 0 too: the empty product is the ring's one, not the int 1
        for n in range(5):
            expansions = [expand_subset_gf(n, params, n + 3), expand_split_gf(n, params)]
            if n >= 1:
                expansions.append(expand_multiset_gf(n, 4, params))
            for series in expansions:
                assert [type(c) for c in series] == [type(params.p)] * len(series), (n, series)


EVAL_POINTS = ((2, 3), (-3, 2), (0, 2), (2, 2))


P, Q = BiPoly.var_p(), BiPoly.var_q()


def _evaluated(series, p, q):
    return [c.eval(p, q) for c in series]


def _c2(k):
    return k * (k - 1) // 2


class TestSymbolicMatchesNumeric:
    """Each product, expanded over Z[p, q] and evaluated at (p, q), equals
    its expansion over the integers at (p, q), coefficient by coefficient."""

    @pytest.mark.parametrize("p, q", EVAL_POINTS)
    def test_gf_expansions(self, p, q):
        params = SeqParams(p, q)
        for n in range(7):
            for order in (n + 1, n + 3):
                pairs = [(expand_subset_gf(n, SYMBOLIC, order), expand_subset_gf(n, params, order))]
                if order == n + 1:  # the split product is always expanded to its degree n
                    pairs.append((expand_split_gf(n, SYMBOLIC), expand_split_gf(n, params)))
                if n >= 1:
                    pairs.append((expand_multiset_gf(n, order, SYMBOLIC), expand_multiset_gf(n, order, params)))
                for symbolic, numeric in pairs:
                    assert _evaluated(symbolic, p, q) == list(numeric)

    @pytest.mark.parametrize("p, q", EVAL_POINTS)
    def test_binomial_expansions(self, p, q):
        # The binomial-like products of linear forms, built here over
        # Z[p, q] as series in x with y = 1, are the subset and split
        # products homogenized: their x**(n-k) y**k coefficient is
        # (-1)**k times coefficient k of the expansion.
        params = SeqParams(p, q)
        for n in range(1, 7):
            weights = [Q ** (i - 1) * P ** (n - i) for i in range(1, n + 1)]
            forms = {
                "subset": ([(w, 1) for w in weights], expand_subset_gf(n, params)),
                "split": ([(Q ** (i - 1), P ** (i - 1)) for i in range(1, n + 1)], expand_split_gf(n, params)),
            }
            for form, (factors, numeric) in forms.items():
                linear = series_product(factors, n + 1, BiPoly.one())
                signed = [(-1) ** k * c for k, c in enumerate(numeric)]
                assert _evaluated(linear, p, q)[::-1] == signed, (n, form)


def binomial_like_expected(n, form, p, q, coeff):
    """Coefficients 0..n of the ``form`` ("subset" or "split") product of
    n by their formula: coefficient k is (-1)**k q**C(k,2) p**E C(n, k),
    with E = C(k,2) for "subset" and C(n-k,2) for "split"."""
    return [(-1) ** k * q ** _c2(k) * p ** _c2(k if form == "subset" else n - k) * coeff(n, k) for k in range(n + 1)]


# identity: (call, weight, entry). Coefficient k of the expansion is
# weight(p, q, k) * C(entry(k)).
CORRUPTED = {
    "subset-gf": (
        lambda params: expand_subset_gf(5, params),
        lambda p, q, k: (-1) ** k * (p * q) ** _c2(k),
        lambda k: (5, k),
    ),
    "multiset-gf": (
        lambda params: expand_multiset_gf(5, 4, params),
        lambda p, q, k: 1,
        lambda k: (5 + k - 1, k),
    ),
    "split-gf": (
        lambda params: expand_split_gf(5, params),
        lambda p, q, k: (-1) ** k * q ** _c2(k) * p ** _c2(5 - k),
        lambda k: (5, k),
    ),
}


class TestCorruptedCoefficients:
    """Each expansion's returned coefficients, compared through ``sweep``
    against their formula, in Z[p, q] and in Z: every coefficient agrees,
    and with C off by one at k = 2 the sweep stops there with the exact
    weighted entries."""

    @pytest.mark.parametrize("identity", CORRUPTED)
    @pytest.mark.parametrize("params", [SYMBOLIC, params_23, SeqParams(-3, 2)], ids=["symbolic", "2,3", "-3,2"])
    def test_violation_fields(self, identity, params):
        call, weight, entry = CORRUPTED[identity]
        p, q = params.p, params.q
        coeff = coeff_symbolic if params is SYMBOLIC else lambda n, k: coeff_recurrence(params, n, k)
        series = call(params)

        def points(shift):
            for k in range(len(series)):
                rhs = weight(p, q, k) * (coeff(*entry(k)) + shift * (k == 2))
                yield 5, k, series[k], rhs

        clean = sweep(identity, "", (5, 5), ("n", "k"), points(0))
        assert (clean.status, clean.checked) == ("holds", len(series))
        report = sweep(identity, "", (5, 5), ("n", "k"), points(1))
        w, true = weight(p, q, 2), coeff(*entry(2))
        assert report.first_counterexample == {"n": 5, "k": 2, "lhs": w * true, "rhs": w * (true + 1)}
        assert report.checked == 3


class TestBinomialLike:
    """The binomial-like theorem is the subset and the split product over
    Z[p, q]; both expanders give it at ``SYMBOLIC``, the indeterminates."""

    EXPANDERS = {"subset": expand_subset_gf, "split": expand_split_gf}

    def test_both_forms_symbolic(self):
        for n in range(1, 7):
            for form, expand in self.EXPANDERS.items():
                expected = binomial_like_expected(n, form, P, Q, coeff_symbolic)
                assert list(expand(n, SYMBOLIC)) == expected, (n, form)

    def test_numeric_params(self):
        # the Z[p, q] expansions evaluated at a pair, against the integer triangle
        for p, q in ((2, 3), (-1, 2), (0, 3), (2, 2)):
            params = SeqParams(p, q)
            for n in range(1, 6):
                for form, expand in self.EXPANDERS.items():
                    expected = binomial_like_expected(n, form, p, q, lambda n, k: coeff_recurrence(params, n, k))
                    assert _evaluated(expand(n, SYMBOLIC), p, q) == expected, (p, q, n, form)


class TestOrthogonality:
    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_holds(self, p, q):
        report = suites.orthogonality_suite([(p, q)], 7)
        assert report.holds, report.first_counterexample

    def test_dot_product_is_series_coefficient(self):
        # orthogonality reads coefficient s of the product as one dot product.
        for p, q in pq_grid():
            params = SeqParams(p, q)
            for n in range(1, 9):
                for s in range(1, 9):
                    subset = expand_subset_gf(n, params, s + 1)
                    multiset = expand_multiset_gf(n, s + 1, params)
                    dot = sum(subset[i] * multiset[s - i] for i in range(s + 1))
                    assert dot == (XSeries(subset) * XSeries(multiset)).coefficients[s], (p, q, n, s)

    def test_equals_the_check_on_series_expanded_once(self):
        # the orthogonality suite expands each n's series once, to order 9,
        # and reads rows 0..15 of the triangle once per pair; the sums are
        # those on series to order s + 1 and rows 0..n+s-1
        for p, q in pq_grid():
            params = SeqParams(p, q)
            rows = list(triangle_rows(params, 15))
            for n in range(1, 9):
                subset = expand_subset_gf(n, params, 9)
                multiset = expand_multiset_gf(n, 9, params)
                for s in range(1, 9):
                    expected = _orthogonal_sums(
                        params, n, s, expand_subset_gf(n, params, s + 1), expand_multiset_gf(n, s + 1, params),
                        list(triangle_rows(params, n + s - 1)),
                    )
                    assert _orthogonal_sums(params, n, s, subset, multiset, rows) == expected, (p, q, n, s)

    def test_sums_at_one_point(self):
        params = SeqParams(2, 3)
        rows = [list(row) for row in triangle_rows(params, 4)]
        series = expand_subset_gf(2, params, 4), expand_multiset_gf(2, 4, params)
        assert _orthogonal_sums(params, 2, 2, *series, rows) == [
            ("convolution", 0, 0), ("product-0", 1, 1), ("product-s", 0, 0), ("reversed", 0, 0),
        ]
        # off the true triangle each sum shows its own value
        rows[4][1] += 1
        assert _orthogonal_sums(params, 2, 3, *series, rows) == [
            ("convolution", 1, 0), ("product-0", 1, 1), ("product-s", 0, 0),
        ]
        # and off the true series too
        assert _orthogonal_sums(params, 2, 1, tuple(2 * c for c in series[0]), series[1], rows) == [
            ("convolution", 0, 0), ("product-0", 2, 1), ("product-s", 0, 0),
        ]

    def test_row_reading_equals_the_point_wise_form(self):
        # On the true triangle and on triangles with one entry off by one, the
        # sums on rows read the entries the point-wise sums read.
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
                        got = _orthogonal_sums(params, n, s, *series[n], corrupted)
                        reference = _point_wise_orthogonal_sums(params, n, s, *series[n], corrupted)
                        assert got == reference, (p, q, corrupt, n, s)
                        refuted += any(value != expected for _, value, expected in got)
        assert refuted > 1000


def _point_wise_orthogonal_sums(params, n, s, subset, multiset, rows):
    """The orthogonality sums at s as written entry by entry, with one
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
    sums = [
        ("convolution", direct, 0),
        ("product-0", subset[0] * multiset[0], 1),
        ("product-s", sum(subset[i] * multiset[s - i] for i in range(s + 1)), 0),
    ]
    if s == n:
        reversed_form = sum(
            coeff(n + k - 1, k) * (-1) ** (n - k) * (p * q) ** (((n - k) * (n - k - 1)) // 2) * coeff(n, k)
            for k in range(n + 1)
        )
        sums.append(("reversed", reversed_form, 0))
    return sums


def vandermonde_terms(params, n, m, k):
    """The convolution terms of ``_vandermonde_at`` over rows 0..n+m: a test
    reference, with the index check."""
    if n < 0 or m < 0 or k < 0 or k > n + m:
        raise ValueError("need 0 <= k <= n + m")
    return _vandermonde_at(params, n, m, k, list(triangle_rows(params, n + m)))


def fibonomial(alpha, n, k):
    """Fibonomial coefficient, the ratio of generalized Fibonacci factorials:
    a test reference for the suite's factorial list."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    factorials, prev, cur = [1], 0, 1  # one walk: cur runs through f(1)..f(n)
    for _ in range(n):
        factorials.append(factorials[-1] * cur)
        prev, cur = cur, alpha * cur + prev
    return exact_div(factorials[n], factorials[k] * factorials[n - k])


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

    def test_plain_variant_refuted_at_one_pair(self):
        report = suites.vandermonde_suite([(2, 3)], 2)
        assert report.holds
        assert report.notes[-1] == "plain-exponent variant fails (interior) at p=2, q=3, n=1, m=2, k=1: 34 != 19"

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
        assert [coeff_partial_fractions(params_23, k, k) for k in range(9)] == [1] * 9

    def test_degenerate_parameters_raise(self):
        with pytest.raises(DegenerateParametersError):
            coeff_partial_fractions(SeqParams(2, 2), 3, 3)
        with pytest.raises(DegenerateParametersError):
            coeff_partial_fractions(SeqParams(-2, 2), 2, 2)


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
        assert fibonomial_suite(1, -1).status == "vacuous"
        with pytest.raises(ValueError, match="^alpha must be positive$"):
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
        assert gaussian_explicit(2, 4, 2) == Fraction(35)
        assert gaussian_explicit(3, 4, 2) == Fraction(130)
        assert isinstance(gaussian_explicit(2, 4, 2), Fraction)

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

    def test_basis_at_one_point(self):
        # Phi_3 = (x - 1)(x - 2)(x - 4) = x**3 - 7x**2 + 14x - 8
        phi, assembled = gaussian_basis(2, 3)
        assert phi == (-8, 14, -7, 1)
        assert assembled == (0, 0, 0, 1)
        assert gaussian_basis(3, 0) == ((1,), (1,))

    def test_power_basis_conversion(self):
        for q_val in (2, 3, -2):
            for n in range(7):
                phi, assembled = gaussian_basis(q_val, n)
                assert list(phi) == [gaussian_inverse_entry(q_val, n, j) for j in range(n + 1)]
                assert list(assembled) == [int(j == n) for j in range(n + 1)]

    def test_basis_rejects_negative_n(self):
        with pytest.raises(ValueError):
            gaussian_basis(2, -1)
