"""Expansions and closed forms behind the coefficient identities.

Three families of product generating functions tie the coefficients to
the box weights w_i = q**(i-1) * p**(n-i):

* subset form: prod (1 - w_i x), whose x**k coefficient is the signed
  elementary weight sum (-1)**k (pq)**C(k,2) C(n, k);
* multiset form: prod 1/(1 - w_i x), whose x**k coefficient is the
  complete weight sum C(n + k - 1, k);
* split form: prod (p**(i-1) - q**(i-1) x), with x**k coefficient
  (-1)**k q**C(k,2) p**C(n-k,2) C(n, k).

Over Z[p, q] the subset and split products are the binomial-like theorem,
proved as a polynomial identity: the products of linear forms
prod (x + w_i y) and prod (p**(i-1) x + q**(i-1) y) are these two
homogenized, x**n times the product at -y/x.  On top of them sit the
orthogonality of the subset and multiset series (their product is 1), a
Vandermonde-style convolution in two exponent variants, an alternating
partial-fraction sum that collapses to 1, and the classical
specializations: Gaussian coefficients with their interpolation basis,
and generalized Fibonomial coefficients, which the suites check inside
the quadratic ring Z[t]/(t^2 - alpha*t - 1).

Each product is written once, over the ring of ``params.p`` and ``params.q``:
Z at a parameter pair, Z[p, q] at the indeterminates, or
Z[t]/(t^2 - alpha*t - 1) at (p, q) = (t, alpha - t); the weights never come
from the routes being checked.
The expansions return coefficient tuples and compare nothing: the suites set
each coefficient against the triangle, one sweep point per coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .coefficients import coeff_recurrence
from .errors import DegenerateParametersError
from .rings import series_product
from .sequences import SeqParams


def _binom2(k: int) -> int:
    return k * (k - 1) // 2


def _ring(params: SeqParams) -> tuple:
    """``(one, p, q)`` in the ring of ``params.p`` and ``params.q``."""
    return params.p * 0 + 1, params.p, params.q


def _box_weights(p, q, n: int) -> list:
    return [q ** (i - 1) * p ** (n - i) for i in range(1, n + 1)]


def expand_subset_gf(n: int, params: SeqParams, order: int | None = None) -> tuple:
    """Coefficients 0..order-1 (default 0..n) of prod_{i=1..n} (1 - w_i x),
    in the ring of ``params.p`` and ``params.q``.

    Coefficient k is (-1)**k (pq)**C(k,2) C(n, k), and 0 beyond degree n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if order is None:
        order = n + 1
    one, p, q = _ring(params)
    return series_product([(one, -w) for w in _box_weights(p, q, n)], order, one)


def expand_multiset_gf(n: int, order: int, params: SeqParams) -> tuple:
    """Coefficients 0..order-1 of prod_{i=1..n} 1/(1 - w_i x), in the ring
    of ``params.p`` and ``params.q``.

    Each reciprocal factor is applied as one pass over the series, not
    expanded first; coefficient k is C(n + k - 1, k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if order < 1:
        raise ValueError("order must be positive")
    one, p, q = _ring(params)
    return series_product((), order, one, reciprocals=_box_weights(p, q, n))


def expand_split_gf(n: int, params: SeqParams) -> tuple:
    """All n + 1 coefficients of prod_{i=1..n} (p**(i-1) - q**(i-1) x), in
    the ring of ``params.p`` and ``params.q``.

    Coefficient k is (-1)**k q**C(k,2) p**C(n-k,2) C(n, k).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    one, p, q = _ring(params)
    factors = [(p ** (i - 1), -(q ** (i - 1))) for i in range(1, n + 1)]
    return series_product(factors, n + 1, one)


def _orthogonal_sums(params: SeqParams, n: int, s: int, subset: tuple, multiset: tuple, rows: list) -> list:
    """The sums that vanish because the subset and multiset series of n are
    inverse, as ``(check, value, expected)`` triples at s.

    On the coefficients of both series, more than s of each, and C read
    from ``rows``, rows 0..n+s-1 or more of the triangle: the alternating
    convolution
    sum_{k=0..s} (-1)**k (pq)**C(k,2) C(n, k) C(n+s-k-1, n-1) is 0,
    coefficient 0 of the series product is 1 and coefficient s is 0, and
    at s = n the reversed sum
    sum_{k=0..n} C(n+k-1, k) (-1)**(n-k) (pq)**C(n-k,2) C(n, k) is 0.
    """
    p, q = params.p, params.q
    direct = sum(
        (-1) ** k * (p * q) ** _binom2(k) * rows[n][k] * rows[n + s - k - 1][n - 1]
        for k in range(min(n, s) + 1)  # C(n, k) = 0 for k > n
    )
    # Coefficients 0 and s of the series product, without forming the rest.
    dot = sum(map(mul, subset[: s + 1], multiset[s::-1]))
    sums = [("convolution", direct, 0), ("product-0", subset[0] * multiset[0], 1), ("product-s", dot, 0)]
    if s == n:
        reversed_form = sum(
            rows[n + k - 1][k] * (-1) ** (n - k) * (p * q) ** _binom2(n - k) * rows[n][k] for k in range(n + 1)
        )
        sums.append(("reversed", reversed_form, 0))
    return sums


def _vandermonde_at(params: SeqParams, n: int, m: int, k: int, rows: list) -> tuple[int, int, int]:
    """Left side and both right-side variants of the convolution identity,
    reading C from ``rows``, rows 0..n+m or more of the triangle.

    Returns (C(n+m, k), proof-exponent sum, plain-exponent sum) where the
    summand is p**E * q**((n-s)(k-s)) * C(n, s) * C(m, k-s) with
    E = (m+s-k)*s for the proof-exponent variant and E = m+s-k for the
    plain one.  Only the proof-exponent variant is an identity.
    """
    p, q = params.p, params.q
    lhs = rows[n + m][k]
    rhs_proof = 0
    rhs_plain = 0
    for s in range(max(0, k - m), min(k, n) + 1):
        base = rows[n][s] * rows[m][k - s] * q ** ((n - s) * (k - s))
        rhs_proof += p ** ((m + s - k) * s) * base
        rhs_plain += p ** (m + s - k) * base
    return lhs, rhs_proof, rhs_plain


def alpha_fibonacci(alpha: int, n: int) -> int:
    """n-th generalized Fibonacci number: f(0) = 0, f(1) = 1,
    f(n) = alpha * f(n-1) + f(n-2)."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    if n < 0:
        raise ValueError("index must be nonnegative")
    prev, cur = 1, 0
    for _ in range(n):
        prev, cur = cur, alpha * cur + prev
    return cur


def gaussian_explicit(q_val: int, n: int, k: int) -> Fraction:
    """Gaussian coefficient via the alternating explicit sum.

    Returns sum_{i=0..k} (-1)**i q**((k-i)(n-i) - C(k-i,2)) /
    (prod_{j=1..i} (q**j - 1) * prod_{j=1..k-i} (q**j - 1)) in exact
    rationals; it equals the coefficient at p = 1, an integer.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if q_val == 1:
        raise DegenerateParametersError("q = 1 zeroes the denominators")
    if q_val == -1 and k >= 2:
        raise DegenerateParametersError("q = -1 zeroes the denominators for k >= 2")
    total = Fraction(0)
    for i in range(k + 1):
        denominator = 1
        for j in range(1, i + 1):
            denominator *= q_val**j - 1
        for j in range(1, k - i + 1):
            denominator *= q_val**j - 1
        exponent = (k - i) * (n - i) - _binom2(k - i)
        total += (-1) ** i * Fraction(q_val**exponent, denominator)
    return total


def gaussian_inverse_entry(q_val: int, n: int, k: int) -> int:
    """Entry (n, k) of the inverse Gaussian triangle:
    (-1)**(n-k) * q**C(n-k,2) * C(n, k) at p = 1."""
    return (-1) ** (n - k) * q_val ** _binom2(n - k) * coeff_recurrence(SeqParams(1, q_val), n, k)


def gaussian_basis(q_val: int, n: int) -> tuple[tuple, tuple]:
    """The interpolation-basis expansions at p = 1, coefficients 0..n of each.

    With Phi_k(x) = prod_{s=0..k-1} (x - q**s), returns Phi_n, whose x**j
    coefficient is the inverse-triangle entry (-1)**(n-j) q**C(n-j,2) C(n, j),
    and sum_{k=0..n} C(n, k) Phi_k(x), which is x**n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    params = SeqParams(1, q_val)
    phis = [series_product([(-(q_val**s), 1) for s in range(k)], n + 1) for k in range(n + 1)]
    weights = [coeff_recurrence(params, n, k) for k in range(n + 1)]
    return phis[n], tuple(sum(map(mul, weights, column)) for column in zip(*phis))
