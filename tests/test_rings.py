"""Exact-arithmetic building blocks: division, polynomials, quadratic
ring elements and truncated series."""

from __future__ import annotations

import copy
import pickle
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import prod
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_sequences import geometric_series
from tnomial import coefficients, rings
from tnomial.coefficients import coeff_factorial, coeff_product
from tnomial.errors import DivisibilityError, ParameterMismatchError
from tnomial.rings import (
    BiPoly,
    QuadElem,
    XSeries,
    _divide_2adic,
    balanced_product,
    exact_div,
    series_product,
)
from tnomial.sequences import SeqParams

small = st.integers(-6, 6)

bipolys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-5, 5),
    max_size=5,
).map(BiPoly)


class TestExactDiv:
    def test_exact(self):
        assert exact_div(211, 1) == 211
        assert exact_div(-38, 19) == -2
        assert exact_div(0, 7) == 0

    def test_remainder_raises(self):
        with pytest.raises(DivisibilityError) as excinfo:
            exact_div(7, 3)
        assert excinfo.value.numerator == 7
        assert excinfo.value.denominator == 3

    def test_zero_denominator_raises(self):
        with pytest.raises(DivisibilityError):
            exact_div(5, 0)

    @given(small, small.filter(bool))
    def test_roundtrip(self, a, b):
        assert exact_div(a * b, b) == a

    def test_error_past_the_digit_limit(self):
        with pytest.raises(DivisibilityError) as excinfo:
            exact_div(10**5000 + 1, 100)
        assert excinfo.value.numerator == 10**5000 + 1
        assert excinfo.value.denominator == 100
        assert str(excinfo.value) == "<16610-bit integer> is not exactly divisible by 100"
        assert str(DivisibilityError(-(10**5000), 7)).startswith("-<16610-bit integer> ")
        assert str(DivisibilityError(7, 3)) == "7 is not exactly divisible by 3"

    # Divisors d << t with odd d: even ones and, at d = +-1, powers of two.
    @given(st.integers(-(10**40), 10**40), st.integers(-999, 999).filter(bool), st.integers(0, 70))
    @example(0, 1, 0)
    @example(0, -3, 5)
    def test_2adic_agrees_with_divmod(self, a, odd, twos):
        b = odd << twos
        quot, rem = divmod(a, b)
        assert _divide_2adic(a, b) == (None if rem else quot)
        assert _divide_2adic(a * b, b) == a

    @pytest.mark.parametrize("quotient_bits", (rings._TWO_ADIC_BITS - 8, rings._TWO_ADIC_BITS + 8))
    def test_both_sides_of_the_size_test(self, quotient_bits, monkeypatch):
        calls = []

        def spy(a, b):
            calls.append((a, b))
            return _divide_2adic(a, b)

        monkeypatch.setattr(rings, "_divide_2adic", spy)
        quot = (1 << quotient_bits) - 12345
        divisor = -((1 << (rings._TWO_ADIC_BITS // 2 + 8)) + 7) << 40
        assert exact_div(quot * divisor, divisor) == quot
        assert exact_div(-quot * divisor, divisor) == -quot
        with pytest.raises(DivisibilityError) as excinfo:
            exact_div(quot * divisor + (1 << 39), divisor)
        assert excinfo.value.numerator == quot * divisor + (1 << 39)
        assert excinfo.value.denominator == divisor
        assert str(excinfo.value).endswith(f" is not exactly divisible by -<{divisor.bit_length()}-bit integer>")
        assert len(calls) == (3 if quotient_bits > rings._TWO_ADIC_BITS else 0)

    @pytest.mark.parametrize("p, q", ((3, 2), (2, -3)))
    def test_factorial_route_past_the_size_test(self, p, q, monkeypatch):
        # Both routes divide with exact_div, above _TWO_ADIC_BITS here.
        calls = []

        def spy(a, b):
            calls.append(b.bit_length())
            return _divide_2adic(a, b)

        monkeypatch.setattr(rings, "_divide_2adic", spy)
        params = SeqParams(p, q)
        assert coeff_factorial(params, 1000, 500) == coeff_product(params, 1000, 500)
        assert len(calls) == 2

    def test_product_quotient_error_in_lowest_terms(self):
        assert coefficients._exact_ratio(-84, 12) == -7
        with pytest.raises(DivisibilityError) as excinfo:
            coefficients._exact_ratio(10, -4)
        assert (excinfo.value.numerator, excinfo.value.denominator) == (-5, 2)
        assert excinfo.value.__suppress_context__


class TestBalancedProduct:
    @pytest.mark.parametrize("size", [0, 1, 16, 17, 33])
    def test_matches_math_prod(self, size):
        values = [(-1) ** i * (3**i + 7) for i in range(size)]
        assert balanced_product(values) == prod(values)
        assert balanced_product(tuple(values)) == prod(values)

    @pytest.mark.parametrize("size", [1, 16, 17, 33])
    @pytest.mark.parametrize("at", [0, -1])
    def test_zero_factor(self, size, at):
        values = [-5] * size
        values[at] = 0
        assert balanced_product(values) == prod(values) == 0

    @given(st.lists(st.integers(-(10**30), 10**30), max_size=70))
    def test_matches_math_prod_on_any_list(self, values):
        assert balanced_product(values) == prod(values)


class TestBiPoly:
    def test_zero_coefficients_dropped(self):
        assert BiPoly({(1, 1): 0, (0, 0): 3}) == BiPoly.from_int(3)
        assert not BiPoly()
        assert BiPoly() == 0

    def test_int_interop(self):
        p = BiPoly.var_p()
        assert p + 0 == p
        assert 1 + p == p + 1
        assert 2 - p == -(p - 2)
        assert 3 * p == p * 3
        assert hash(BiPoly.from_int(5)) == hash(5)

    def test_canonical_string(self):
        p, q = BiPoly.var_p(), BiPoly.var_q()
        poly = p**2 + 2 * p * q + q**2 - 1
        assert str(poly) == "p^2 + 2*p*q + q^2 - 1"
        assert str(BiPoly()) == "0"
        assert str(-p) == "-p"

    def test_sorted_terms_order(self):
        # the string lists the terms lexicographically on (p-degree, q-degree), leading term first
        poly = BiPoly({(0, 2): 1, (2, 0): 1, (1, 1): 1})
        assert str(poly) == "p^2 + p*q + q^2"
        assert str(BiPoly({(0, 3): -2, (1, 0): 1, (1, 2): -1})) == "-p*q^2 + p - 2*q^3"

    def test_swap_vars(self):
        def swapped(poly):
            return BiPoly({(j, i): coeff for (i, j), coeff in poly.terms.items()})

        poly = BiPoly.var_p() ** 3 + 2 * BiPoly.var_q()
        assert swapped(poly) == BiPoly.var_q() ** 3 + 2 * BiPoly.var_p()
        assert swapped(swapped(poly)) == poly

    def test_homogeneity(self):
        def total_degrees(poly):
            return {i + j for i, j in poly.terms}

        sym = BiPoly({(2, 0): 1, (1, 1): 1, (0, 2): 1})
        assert total_degrees(sym) == {2}
        assert len(total_degrees(sym + 1)) > 1
        assert total_degrees(BiPoly()) == set()  # no terms: homogeneous of any degree

    @given(bipolys, bipolys, bipolys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(bipolys, bipolys, small, small)
    def test_eval_is_a_homomorphism(self, a, b, p0, q0):
        assert (a * b).eval(p0, q0) == a.eval(p0, q0) * b.eval(p0, q0)
        assert (a + b).eval(p0, q0) == a.eval(p0, q0) + b.eval(p0, q0)

    @staticmethod
    def _term_sum(poly, p0, q0):
        """The reference for ``eval``: each term's powers raised on their own."""
        return sum(coeff * p0**i * q0**j for (i, j), coeff in poly.terms.items())

    @given(
        st.dictionaries(st.tuples(st.integers(0, 30), st.integers(0, 30)), st.integers(-9, 9), max_size=8).map(BiPoly),
        small,
        small,
    )
    def test_eval_matches_term_sum(self, poly, p0, q0):
        assert poly.eval(p0, q0) == self._term_sum(poly, p0, q0)

    @pytest.mark.parametrize(
        "terms",
        [
            {},
            {(0, 0): 7},
            {(0, 0): -3, (0, 4): 2, (5, 0): 1},
            {(10, 0): 1, (3, 7): -4, (0, 20): 5, (3, 1): 2},
            {(2, 3): 1, (7, 3): -1, (7, 9): 6},
        ],
    )
    @pytest.mark.parametrize("p0, q0", [(0, 0), (0, 5), (4, 0), (-3, 2), (2, -3), (-1, -1), (1, 1)])
    def test_eval_zero_constant_and_gap_cases(self, terms, p0, q0):
        poly = BiPoly(terms)
        assert poly.eval(p0, q0) == self._term_sum(poly, p0, q0)

    def test_eval_sparse_high_power_costs_one_pow(self):
        poly = BiPoly.monomial(100000, 100000)
        for p0, q0 in ((3, -2), (-2, 3)):
            start = time.perf_counter()
            value = poly.eval(p0, q0)
            assert time.perf_counter() - start < 0.5
            assert value == p0**100000 * q0**100000

    @given(
        st.dictionaries(st.tuples(st.integers(0, 30), st.integers(0, 30)), st.integers(-9, 9), max_size=8).map(BiPoly),
        small,
        small,
        small,
        small,
    )
    @example(BiPoly({(0, 0): 2, (3, 1): -1, (3, 4): 5, (7, 0): 1}), 0, -3, -2, 0)
    def test_second_point_reuses_the_plan(self, poly, p0, q0, p1, q1):
        assert poly.eval(p0, q0) == self._term_sum(poly, p0, q0)
        assert poly.eval(p1, q1) == self._term_sum(poly, p1, q1)

    def test_plan_leaves_the_value_alone(self):
        terms = {(4, 1): 3, (2, 2): -1, (0, 5): 7, (2, 0): 2}
        evaluated, fresh = BiPoly(terms), BiPoly(terms)
        evaluated.eval(2, -3)
        assert evaluated._plan is not None and fresh._plan is None
        assert evaluated == fresh and hash(evaluated) == hash(fresh)
        assert str(evaluated) == str(fresh) and repr(evaluated) == repr(fresh)
        assert pickle.dumps(evaluated) == pickle.dumps(fresh)
        for copied in (pickle.loads(pickle.dumps(evaluated)), copy.copy(evaluated), copy.deepcopy(evaluated)):
            assert copied == fresh and hash(copied) == hash(fresh) and str(copied) == str(fresh)
            assert copied.eval(-1, 4) == evaluated.eval(-1, 4) == self._term_sum(fresh, -1, 4)

    def test_plan_of_a_triangle_entry_is_compact(self):
        # q-degrees 0..900, as in a triangle entry: each is its own index,
        # so the plan holds references only, no number of its own per term.
        terms = {(a, 900 - a): 3 * a + 1 for a in range(901)}
        tracemalloc.start()
        try:
            poly = BiPoly(terms)
            own = tracemalloc.get_traced_memory()[0]
            assert poly.eval(2, 3) == self._term_sum(poly, 2, 3)
            plan = tracemalloc.get_traced_memory()[0] - own
        finally:
            tracemalloc.stop()
        assert 0 < plan < 0.4 * own

    def test_plan_built_once_per_instance(self, monkeypatch):
        calls = []
        build = BiPoly._horner_plan

        def spy(poly):
            calls.append(poly)
            return build(poly)

        monkeypatch.setattr(BiPoly, "_horner_plan", spy)
        first, second = BiPoly({(3, 2): 5, (0, 1): -2}), BiPoly({(1, 1): 1})
        for p0, q0 in ((2, 3), (0, -1), (-4, 0)):
            assert first.eval(p0, q0) == 5 * p0**3 * q0**2 - 2 * q0
        assert calls == [first]
        second.eval(1, 2)
        second.eval(1, 2)
        assert calls == [first, second]

    @given(bipolys, st.integers(0, 5))
    @example(BiPoly({(3, 1): -2}), 5)
    @example(BiPoly({(0, 0): 3}), 0)
    @example(BiPoly(), 0)
    def test_pow_matches_repeated_product(self, a, e):
        expected = BiPoly.one()
        for _ in range(e):
            expected = expected * a
        assert a**e == expected

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            BiPoly.var_p() ** -1


def conjugate(z):
    """The ring conjugate of a QuadElem: swaps t and alpha - t."""
    return QuadElem(z.a + z.alpha * z.b, -z.b, z.alpha)


class TestQuadElem:
    def test_defining_relation(self):
        t = QuadElem.root(5)
        assert t * t == 1 + 5 * t

    def test_root_pair(self):
        for alpha in (1, 2, 7):
            t = QuadElem.root(alpha)
            s = QuadElem.conjugate_root(alpha)
            assert t + s == alpha
            assert t * s == -1
            assert conjugate(t) == s

    def test_norm_multiplicative(self):
        def norm(z):  # the product with the conjugate, a**2 + alpha*a*b - b**2
            return z * conjugate(z)

        x = QuadElem(2, 3, 1)
        y = QuadElem(-1, 4, 1)
        assert (norm(x), norm(y)) == (4 + 6 - 9, 1 - 4 - 16)  # t-free
        assert norm(x * y) == norm(x) * norm(y)

    @given(small, small, small, small, st.integers(1, 4))
    def test_commutative_ring(self, a1, b1, a2, b2, alpha):
        x = QuadElem(a1, b1, alpha)
        y = QuadElem(a2, b2, alpha)
        assert x * y == y * x
        assert x + y == y + x
        assert conjugate(x + y) == conjugate(x) + conjugate(y)
        assert conjugate(x * y) == conjugate(x) * conjugate(y)

    def test_mixed_alpha_rejected(self):
        with pytest.raises(ParameterMismatchError):
            QuadElem.root(1) + QuadElem.root(2)
        with pytest.raises(ParameterMismatchError):
            QuadElem.root(1) * QuadElem.root(2)
        with pytest.raises(ParameterMismatchError):
            QuadElem.root(1) - QuadElem.root(2)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError):
            QuadElem(1, 1, 0)

    def test_integer_detection(self):
        five = QuadElem.from_int(5, 3)
        assert five.b == 0
        assert five == 5
        assert hash(five) == hash(5)
        assert QuadElem.root(3).b != 0

    def test_immutability(self):
        t = QuadElem.root(1)
        with pytest.raises(AttributeError):
            t.a = 9

    def test_pickles_copies_and_refuses_deletion(self):
        z = QuadElem(-4, 7, 3)
        copies = [copy.copy(z), copy.deepcopy(z)]
        copies += [pickle.loads(pickle.dumps(z, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for duplicate in copies:
            assert type(duplicate) is QuadElem and duplicate == z and repr(duplicate) == repr(z)
            assert (duplicate.a, duplicate.b, duplicate.alpha) == (-4, 7, 3)
        for name in ("a", "b", "alpha", "unknown"):
            with pytest.raises(AttributeError):
                setattr(z, name, 0)
            with pytest.raises(AttributeError):
                delattr(z, name)
        assert (z.a, z.b, z.alpha) == (-4, 7, 3)

    def test_power(self):
        t = QuadElem.root(1)
        assert t**10 == QuadElem(34, 55, 1)
        assert t**0 == 1
        with pytest.raises(ValueError):
            t**-1


@pytest.mark.parametrize(
    "x, y",
    [(BiPoly({(2, 1): 3, (0, 0): -1}), BiPoly({(1, 0): 2, (0, 1): 5})), (QuadElem(2, -3, 2), QuadElem(-1, 4, 2))],
)
class TestDerivedOperators:
    def test_subtraction_is_adding_the_negative(self, x, y):
        assert 3 - x == -x + 3
        assert x - 3 == x + (-3)
        assert x - y == x + (-y)
        assert (x - y) + y == x
        assert x - x == x * 0


class TestXSeries:
    def test_arithmetic_truncates_to_min_order(self):
        a = XSeries((1, 1, 1, 1))
        b = XSeries((1, -1))
        assert (a * b).coefficients == (1, 0)
        assert (b * a).coefficients == (1, 0)

    def test_geometric_inverse(self):
        lam = 7
        linear = XSeries((1, -lam, 0, 0, 0, 0))
        assert linear * XSeries(geometric_series(lam, 6)) == XSeries((1, 0, 0, 0, 0, 0))

    def test_geometric_series_values(self):
        assert geometric_series(3, 4) == (1, 3, 9, 27)

    def test_series_product_empty_is_one(self):
        assert series_product([], 5) == (1, 0, 0, 0, 0)

    def test_fraction_coefficients(self):
        half = Fraction(1, 2)
        s = geometric_series(half, 3)
        assert s == (1, half, Fraction(1, 4))
        assert (XSeries(s) * XSeries((1, -half, 0))).coefficients == (1, 0, 0)

    @given(
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
        st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    )
    def test_multiplication_associative(self, xs, ys, zs):
        order = min(len(xs), len(ys), len(zs))
        a, b, c = XSeries(tuple(xs[:order])), XSeries(tuple(ys[:order])), XSeries(tuple(zs[:order]))
        assert (a * b) * c == a * (b * c)

    def test_polynomial_coefficients(self):
        p = BiPoly.var_p()
        s = XSeries((BiPoly.one(), p, BiPoly()))
        assert (s * s).coefficients == (BiPoly.one(), 2 * p, p * p)


@st.composite
def ring_products(draw):
    """A ring's ``one``, a truncation order 0..12, linear factors a + b x as
    pairs (a, b) in that ring, zero coefficients included, and weights for
    reciprocal factors."""
    ring = draw(st.sampled_from(("int", "BiPoly", "QuadElem")))
    if ring == "int":
        one, elements = 1, small
    elif ring == "BiPoly":
        one, elements = BiPoly.one(), bipolys
    else:
        alpha = draw(st.integers(1, 3))
        one = QuadElem.from_int(1, alpha)
        elements = st.builds(lambda a, b: QuadElem(a, b, alpha), small, small)
    coefficients = st.one_of(elements, st.just(one * 0), st.just(one))
    order = draw(st.integers(0, 12))
    factors = draw(st.lists(st.tuples(coefficients, coefficients), max_size=14))
    return one, order, factors, draw(st.lists(elements, max_size=3))


def _folded(one, order, factors):
    """The coefficients of the product by left-folding the generic
    series-by-series ``*``."""
    return reduce(mul, factors, XSeries((one, *[one * 0] * order)[:order])).coefficients


def _linear(one, order, factors):
    """Each pair (a, b) as the series a + b x truncated at ``order``."""
    return [XSeries((a, b, *[one * 0] * order)[:order]) for a, b in factors]


class TestSeriesProductKernel:
    """``series_product`` applies each linear factor as one pass over one
    list; the generic ``XSeries.__mul__`` is the reference it must agree with."""

    @settings(deadline=None)
    @given(ring_products())
    def test_matches_generic_product(self, case):
        one, order, factors, _ = case
        product, reference = series_product(factors, order, one), _folded(one, order, _linear(one, order, factors))
        assert product == reference
        assert [type(c) for c in product] == [type(c) for c in reference]

    @settings(deadline=None)
    @given(ring_products())
    def test_reciprocal_pass_matches_geometric_series(self, case):
        one, order, factors, weights = case
        geometric = [XSeries(geometric_series(w, order)) for w in weights]
        reference = _folded(one, order, _linear(one, order, factors) + geometric)
        assert series_product(factors, order, one, reciprocals=weights) == reference

    def test_reciprocal_cancels_its_linear_factor(self):
        w = BiPoly.var_p() * BiPoly.var_q()
        assert series_product([(BiPoly.one(), -w)], 6, BiPoly.one(), reciprocals=[w]) == (BiPoly.one(), *[BiPoly()] * 5)

    def test_negative_order_raises(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            series_product([], -1)
