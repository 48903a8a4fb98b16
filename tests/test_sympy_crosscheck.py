"""BiPoly arithmetic and the symbolic triangle against sympy, where installed."""

from __future__ import annotations

import random

import pytest

from tnomial.coefficients import coeff_symbolic
from tnomial.rings import BiPoly

sympy = pytest.importorskip("sympy")
p, q = sympy.symbols("p q")


def to_sympy(poly):
    return sum((c * p**i * q**j for (i, j), c in poly.terms.items()), sympy.Integer(0))


def random_bipoly(rng):
    terms = {(rng.randint(0, 6), rng.randint(0, 6)): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
    return BiPoly(terms)


def test_products_match_sympy_expand():
    rng = random.Random(5)
    for _ in range(100):
        a, b = random_bipoly(rng), random_bipoly(rng)
        assert sympy.expand(to_sympy(a * b) - sympy.expand(to_sympy(a) * to_sympy(b))) == 0, (a, b)


def test_symbolic_triangle_matches_cancelled_term_ratio():
    def term(m):
        return sum(p ** (i - 1) * q ** (m - i) for i in range(1, m + 1))

    for n in range(9):
        for k in range(n + 1):
            ratio = sympy.cancel(sympy.Mul(*(term(n - k + i) / term(i) for i in range(1, k + 1))))
            assert sympy.expand(ratio - to_sympy(coeff_symbolic(n, k))) == 0, (n, k)
