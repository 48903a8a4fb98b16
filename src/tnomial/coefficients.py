"""T-nomial coefficients computed along independent routes.

The coefficient C(n, k) attached to a sequence T(p, q) generalizes the
binomial coefficient (p = q = 1), the Gaussian coefficient (p = 1) and
the diagonal case C(n, k) * p**(k*(n-k)) (p = q).  Each public function
here evaluates it through a different formula so that agreement between
routes is meaningful evidence:

* factorial ratio of term factorials,
* the additive triangle recurrence (also symbolically over Z[p, q]),
* a telescoping product of term ratios, as one exact integer quotient,
* multiset / subset sums of box weights q**(i-1) * p**(n-i), from the sums
  of one half box, scaled back for both halves in one join,
* an alternating partial-fraction sum over the nodes q**s * p**(k-s).

All routes ignore the sequence ``scale``: the factorial route cancels it
exactly and the others never see it.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from functools import cache, lru_cache, partial
from itertools import islice, zip_longest
from math import comb
from operator import mul
from typing import Callable, Iterable, Iterator

from .errors import DegenerateParametersError, DivisibilityError
from .rings import BiPoly, balanced_product, exact_div, series_product
from .sequences import SeqParams, _term_product, term_closed, term_factorial

_CACHE_LIMIT = 128  # integer rows and symbolic entries up to this row are memoized; past it point forms walk their window
_MAX_PAIRS = 64


def _check_indices(n: int, k: int) -> None:
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"coefficient indices need 0 <= k <= n, got n={n}, k={k}")


def _share_mirrored(row: list) -> list:
    """``row``, with its upper half made of the lower half's objects if it
    equals the reversed lower half, so a symmetric row holds each mirrored
    entry once; the entries are only compared, never assumed symmetric."""
    half = len(row) // 2
    mirrored = row[:half][::-1]
    if row[len(row) - half :] == mirrored:
        row[len(row) - half :] = mirrored
    return row


def _next_row(prev: list, step: Callable) -> list:
    """Row m = len(prev) of a triangle from row m - 1: the edges are the
    unit prev[0], the entries in between come from ``step(prev, m, 1, m - 1)``."""
    m = len(prev)
    return _share_mirrored([prev[0], *step(prev, m, 1, m - 1), prev[0]])


def _walk_window(unit: object, n: int, k: int, zero: object, step: Callable) -> object:
    """C(n, k) of the triangle whose row 0 is [unit], by ``step``: each row m >= 1
    is built only in the window j <= k, m - j <= n - k that C(n, k) depends on,
    in place, from the last window, the unit and C(m - 1, m) = ``zero``."""
    window = [unit] + [zero] * k
    for m in range(1, n + 1):
        lo, hi = max(1, k - (n - m)), min(m, k)
        window[lo : hi + 1] = step(window, m, lo, hi)
    return window[k]


def _rows_from(row: list, n_max: int, step: Callable) -> Iterator[list]:
    """``row``, then each later row of its triangle up to row n_max, built
    from the one before by ``step`` and not stored."""
    yield row
    for _ in range(len(row), n_max + 1):
        row = _next_row(row, step)
        yield row


def _int_step(p: int, q: int, prev: list[int], m: int, lo: int, hi: int) -> list[int]:
    """The integer step, bound to (p, q) by ``partial``: entries lo..hi of row
    m from row m - 1, each C(m, j) = p**(m-j) * C(m-1, j-1) + q**j * C(m-1, j)."""
    entries = []
    for j in range(lo, hi + 1):
        entries.append(p ** (m - j) * prev[j - 1] + q**j * prev[j])
    return entries


@lru_cache(maxsize=_MAX_PAIRS * (_CACHE_LIMIT + 1))
def _row(p: int, q: int, n: int) -> list[int]:
    """Row n <= _CACHE_LIMIT of the (p, q) triangle, memoized; callers must not mutate it."""
    return [1] if n == 0 else _next_row(_row(p, q, n - 1), partial(_int_step, p, q))


def coeff_recurrence(params: SeqParams, n: int, k: int) -> int:
    """C(n, k) from C(n, k) = p**(n-k) C(n-1, k-1) + q**k C(n-1, k).

    Rows up to the cache limit are memoized whole; past it only the window
    that C(n, k) depends on is built, from row 0 (``_walk_window``).
    """
    p, q = params.p, params.q
    if 0 <= k <= n <= _CACHE_LIMIT:
        return _row(p, q, n)[k]
    _check_indices(n, k)
    return _walk_window(1, n, k, 0, partial(_int_step, p, q))


def triangle_rows(params: SeqParams, n_max: int) -> Iterator[list[int]]:
    """Rows 0..n_max of the triangle, in order, by the same recurrence: the
    memoized rows, then each row past the cache limit built once from the
    row before (``_rows_from``), so the cost is linear in the rows yielded.
    The yielded lists may be shared with the cache: do not mutate them."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    p, q, last = params.p, params.q, min(n_max, _CACHE_LIMIT)
    yield from map(partial(_row, p, q), range(last))
    yield from _rows_from(_row(p, q, last), n_max, partial(_int_step, p, q))


_DECIMAL_BITS = 1_000
"""``printed_rows`` builds decimal rows past the first row whose middle entry
has more bits than this: ``str`` is quadratic in an int's digits and linear
in a ``Decimal``'s.  One entry's step and ``str`` at (3, -2), m = 100, j = 50
(Python 3.11.7): int 1.00 / 2.05 / 23.3 us, decimal 1.24 / 1.75 / 4.8 us,
at 512 / 1,024 / 4,096 bits."""

_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded])


def _exact_step(p: int, q: int, prev: list[Decimal], m: int, lo: int, hi: int) -> list[Decimal]:
    """``_int_step`` under ``_EXACT``: a result that would need rounding raises."""
    with localcontext(_EXACT):
        return _int_step(p, q, prev, m, lo, hi)


def printed_rows(params: SeqParams, n_max: int) -> Iterator[list[int] | list[Decimal]]:
    """The rows of ``triangle_rows`` with the same values, for printing: its
    int rows up to the first whose middle entry has more than ``_DECIMAL_BITS``
    bits, then rows built from that row, converted to ``Decimal`` once, by
    ``_int_step`` under ``_EXACT``, so that ``str`` is linear in the digits.
    Only compare those entries or take their ``str``: any arithmetic on them
    outside ``_EXACT``, even ``abs`` or unary ``-``, rounds to the caller's
    context (28 digits by default)."""
    for row in triangle_rows(params, n_max):
        yield row
        if row[len(row) // 2].bit_length() > _DECIMAL_BITS:
            step = partial(_exact_step, params.p, params.q)
            yield from islice(_rows_from(list(map(Decimal, row)), n_max, step), 1, None)
            return


def _dense_step(prev: list[list[int]], m: int, lo: int, hi: int) -> list[list[int]]:
    """The symbolic step: entries lo..hi of row m in dense homogeneous form,
    entry (m, j), of degree d = j(m-j), being the list of its coefficients of
    p**a * q**(d-a), a = 0..d (``_next_entry_dense``)."""
    return [_next_entry_dense(prev[j - 1], prev[j], m - j) for j in range(lo, hi + 1)]


def _next_entry_dense(left: list[int], right: list[int], shift: int) -> list[int]:
    """Entry (m, j) in dense form from left = C(m-1, j-1) and right = C(m-1, j),
    shift = m - j: q**j * right is right's list, and p**(m-j) * left is left
    moved up by shift places."""
    overlap = [x + y for x, y in zip_longest(left, right[shift:], fillvalue=0)]
    return right[:shift] + [0] * (shift - len(right)) + overlap


def _poly_of_dense(dense: list[int]) -> BiPoly:
    degree = len(dense) - 1
    return BiPoly({(a, degree - a): c for a, c in enumerate(dense)})


@cache
def _symbolic_entry(n: int, k: int) -> BiPoly:
    """Entry (n, k) of the symbolic triangle as a ``BiPoly``, for valid indices, its window
    walked from row 0 by the dense step; ``coeff_symbolic`` reads the memo up to _CACHE_LIMIT."""
    return _poly_of_dense(_walk_window([1], n, k, [], _dense_step))


def coeff_symbolic(n: int, k: int) -> BiPoly:
    """C(n, k) as a polynomial in Z[p, q] via the same triangle recurrence.

    The integer triangle's window walker runs from row 0 with the dense step
    ``_dense_step``.  The entry is memoized up to the cache limit; past it the
    same walk runs and nothing is stored.
    """
    if 0 <= k <= n <= _CACHE_LIMIT:
        return _symbolic_entry(n, k)
    _check_indices(n, k)
    return _symbolic_entry.__wrapped__(n, k)


def _factorial_half(params: SeqParams, n: int, k: int) -> int:
    """j = min(k, n - k), once the indices are checked and the factorial
    ratio of entry (n, k) is known to be defined (see ``coeff_factorial``)."""
    _check_indices(n, k)
    if params.p + params.q == 0 and max(k, n - k) >= 2:
        raise DivisibilityError(0, 0)
    return min(k, n - k)


def coeff_factorial(params: SeqParams, n: int, k: int) -> int:
    """C(n, k) as term_factorial(n) / (term_factorial(k) * term_factorial(n - k)).

    The larger factorial of the denominator, [max(k, n-k)]!, is cancelled
    against the first terms of [n]! before dividing, so the quotient taken is
    the product of terms n-j+1..n over [j]!, with j = min(k, n - k).  That
    cancellation needs every term to be nonzero: a term vanishes exactly
    when p + q == 0 (T_2 = p + q divides every even-indexed term), and the
    full ratio then divides 0 by 0 once max(k, n-k) >= 2, so the route
    raises that DivisibilityError.
    """
    j = _factorial_half(params, n, k)
    return exact_div(_term_product(params, n - j + 1, n + 1), term_factorial(params, j))


def factorial_row(params: SeqParams, n: int) -> list[int]:
    """Row n by the factorial route, entry k equal to ``coeff_factorial``: the
    quotient of terms n-j+1..n over [j]! for j = 0..n // 2, from two running
    products, read at j = min(k, n - k)."""
    _factorial_half(params, n, 0)  # entry 0 raises if any entry does
    terms = [term_closed(params, i) for i in range(n + 1)]
    halves, top, bottom = [1], 1, 1
    for j in range(1, n // 2 + 1):
        top *= terms[n - j + 1]
        bottom *= terms[j]
        halves.append(exact_div(top, bottom))
    return [halves[min(k, n - k)] for k in range(n + 1)]


def coeff_product(params: SeqParams, n: int, k: int) -> int:
    """C(n, k) as the product over i = 1..k of the term ratios.

    For p != q each factor is (p**(n-i+1) - q**(n-i+1)) / (p**i - q**i);
    the k numerators and the k denominators are each multiplied as a
    balanced tree by ``rings.balanced_product``, and their quotient, taken
    by ``exact_div``, must come out exact (a remainder raises
    DivisibilityError with the ratio in lowest terms).  A vanishing
    p**i - q**i raises DegenerateParametersError naming the first such i.
    On the diagonal p = q the product collapses to comb(n, k) * p**(k*(n-k)).
    """
    _check_indices(n, k)
    p, q = params.p, params.q
    if p == q:
        return comb(n, k) * p ** (k * (n - k))
    denominators = [p**i - q**i for i in range(1, k + 1)]
    if 0 in denominators:
        i = denominators.index(0) + 1
        raise DegenerateParametersError(
            f"p**{i} == q**{i} for p={p}, q={q}: product route undefined"
        )
    numerators = [p ** (n - i + 1) - q ** (n - i + 1) for i in range(1, k + 1)]
    return _exact_ratio(balanced_product(numerators), balanced_product(denominators))


def _exact_ratio(numerator: int, denominator: int) -> int:
    """numerator / denominator by ``exact_div``; a remainder raises
    DivisibilityError with the ratio in lowest terms."""
    try:
        return exact_div(numerator, denominator)
    except DivisibilityError:
        raise DivisibilityError(*Fraction(numerator, denominator).as_integer_ratio()) from None


def product_row(params: SeqParams, n: int) -> list[int]:
    """Row n by the product route, entry k equal to ``coeff_product``, from one
    running numerator and denominator and one division per k.  The row stops
    before the first k whose factor p**k - q**k vanishes, where the entry
    raises DegenerateParametersError."""
    _check_indices(n, 0)
    p, q = params.p, params.q
    if p == q:
        return [comb(n, k) * p ** (k * (n - k)) for k in range(n + 1)]
    row, numerator, denominator = [1], 1, 1
    for k in range(1, n + 1):
        factor = p**k - q**k
        if factor == 0:
            break
        numerator *= p ** (n - k + 1) - q ** (n - k + 1)
        denominator *= factor
        row.append(_exact_ratio(numerator, denominator))
    return row


def box_weights(params: SeqParams, n: int) -> list[int]:
    """The n box weights q**(i-1) * p**(n-i) for i = 1..n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    p, q = params.p, params.q
    return [q ** (i - 1) * p ** (n - i) for i in range(1, n + 1)]


def coeff_lambda_multiset(params: SeqParams, n: int, k: int) -> int:
    """Sum of weight products over all k-multisets of the n box weights.

    Evaluates sum over 1 <= b_1 <= ... <= b_k <= n of w(b_1) * ... * w(b_k)
    by the complete homogeneous recursion h(i, j) = h(i-1, j) + w_i * h(i, j-1),
    split at every n in two scaled half boxes as ``coeff_lambda_subset`` does:
    h_k = sum over j of a**j * b**(k-j) * h_j(h boxes) * h_(k-j)(n - h boxes),
    with j = 0..k, as a box may be chosen again.  Only the h boxes are summed:
    for odd n the h + 1 boxes are one box p**h and q times the h boxes, so
    their sums are g_j = q**j * h_j + p**h * g_(j-1), ascending from g_0 = 1.
    The value equals C(n + k - 1, k).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = n // 2
    left = right = series_product((), k + 1, reciprocals=box_weights(params, h))
    if n % 2:
        right, g, p_h, q_power = [], 0, params.p**h, 1
        for x in left:
            g = q_power * x + p_h * g
            right.append(g)
            q_power *= params.q
    return _join_scaled_halves(left, right, params.p ** (n - h), params.q**h, 0, k)


def lambda_multiset_row(params: SeqParams, n: int) -> list[int]:
    """h_0..h_n of the n box weights: entry k equals ``coeff_lambda_multiset``."""
    if n < 1:
        raise ValueError("n must be positive")
    return list(series_product((), n + 1, reciprocals=box_weights(params, n)))


def coeff_lambda_subset(params: SeqParams, n: int, k: int) -> int:
    """Sum of weight products over all k-subsets of the n box weights.

    Evaluates sum over 1 <= b_1 < ... < b_k <= n of w(b_1) * ... * w(b_k)
    grouped by the number j of chosen boxes among the first h = n // 2.  The
    weights of boxes 1..h are a = p**(n-h) times the weights of h boxes, those
    of boxes h+1..n are b = q**h times the weights of n - h boxes, and scaling
    every weight by c scales e_j by c**j, so
    e_k = sum over j of a**j * b**(k-j) * e_j(h boxes) * e_(k-j)(n - h boxes).
    Only the h boxes are summed, over the band the join reads
    (``_elementary_sums``).  For even n both halves read that band; for odd n
    the h + 1 boxes are a box p**h and q times the h boxes, with sums
    e'_j = q**j * e_j + p**h * q**(j-1) * e_(j-1) from the same band, which
    reaches j = k - hi - 1.  The value equals C(n, k) * (p*q)**(k*(k-1)/2),
    and 0 when k > n.
    """
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    h = n // 2
    lo, hi = max(0, k - (n - h)), min(h, k)
    sums = _elementary_sums(box_weights(params, h), hi, lo)
    left = right = sums[lo : hi + 1]
    if n % 2:
        e, p_h, q = [0, *sums, 0], params.p**h, params.q  # e[j + 1] = e_j
        right = [q**j * e[j + 1] + p_h * q ** max(j - 1, 0) * e[j] for j in range(k - hi, k - lo + 1)]
    return _join_scaled_halves(left, right, params.p ** (n - h), params.q**h, lo, k)


def lambda_subset_row(params: SeqParams, n: int) -> list[int]:
    """e_0..e_n of the n box weights: entry k equals ``coeff_lambda_subset``."""
    if n < 0:
        raise ValueError("indices must be nonnegative")
    return _elementary_sums(box_weights(params, n), n, 0)


def _elementary_sums(weights: list[int], k: int, low: int) -> list[int]:
    """e_0..e_k of the weights, in one pass; only the entries j >= low are final.

    After weight i of m only the band j in [max(1, low - (m - i)), min(i, k)]
    is updated: e(i, j) is still 0 above it, and an entry below it can no
    longer reach e(m, low): each of the m - i weights left raises j by at most 1.
    """
    m = len(weights)
    e = [1] + [0] * k
    for i, w in enumerate(weights, 1):
        for j in range(min(i, k), max(1, low - (m - i)) - 1, -1):
            e[j] += w * e[j - 1]
    return e


def _join_scaled_halves(left: list[int], right: list[int], a: int, b: int, lo: int, k: int) -> int:
    """Sum over j = lo..hi of a**j * b**(k-j) * L_j * R_(k-j), where ``left``
    holds L_lo..L_hi and ``right`` holds R_(k-hi)..R_(k-lo); 0 if they are empty.

    Joins the weight sums of two halves of the boxes whose weights are a and
    b times the weights they were summed over; each route passes in its own
    sums.  With P_t = L_t * R_(k-t) the sum is a**lo * b**(k-hi) * S(lo, hi),
    and S(i, j) = sum over t = i..j of a**(t-i) * b**(j-t) * P_t splits at the
    middle m as b**(j-m) * S(i, m) + a**(m+1-i) * S(m+1, j): the factors of
    each product grow together.  No power is cached: building a cache costs more than the repeats.
    """
    terms = list(map(mul, left, reversed(right)))
    if not terms:
        return 0

    def fold(i: int, j: int) -> int:
        if i == j:
            return terms[i]
        m = (i + j) // 2
        return b ** (j - m) * fold(i, m) + a ** (m + 1 - i) * fold(m + 1, j)

    return fold(0, len(terms) - 1) * a**lo * b ** (k - lo - len(terms) + 1)


def coeff_partial_fractions(params: SeqParams, n: int, k: int) -> Fraction:
    """C(n, k) as the alternating partial-fraction sum over the k + 1 nodes
    mu_s = q**s * p**(k-s).

    Valid for any integer n (including n < k, where the value is 0 for
    0 <= n < k, and negative n, where it is a genuine rational).  Requires
    the nodes to be pairwise distinct, so p != q and in particular no
    parameter pair with |p| == |q| or a zero parameter when k >= 2.

    Term i is (-1)**(k-i) mu_i**n over the product of mu_max(i,j) -
    mu_min(i,j), j != i.  Each factor mu_l - mu_j (l > j) is
    q**j p**(k-l) (q**(l-j) - p**(l-j)), so the term is (-1)**(k-i) q**e(i) p**e(k-i) / (D(i) D(k-i)), with e(j) =
    j(n-k) + C(j+1, 2) and D(m) = prod_{d=1..m} (q**d - p**d).  Scaled by
    (p*q)**s, s = max(-e), every power is integral, negative n included, so
    the integer numerator is summed over one denominator D(k) (p*q)**s.
    """
    return partial_fraction_column(params, k, [n])[0]


def partial_fraction_column(params: SeqParams, k: int, ns: Iterable[int]) -> list[Fraction]:
    """``coeff_partial_fractions(params, n, k)`` for each n in ``ns``: the node
    check, D(0..k) and the k + 1 quotients D(k) / (D(i) D(k-i)) depend only on
    (p, q, k) and are built once for the whole column."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    p, q = params.p, params.q
    if p == q:
        raise DegenerateParametersError(f"p == q == {p}: partial fractions undefined")
    nodes = [q**s * p ** (k - s) for s in range(k + 1)]
    if len(set(nodes)) != len(nodes):
        raise DegenerateParametersError(f"coincident nodes {nodes} for p={p}, q={q}, k={k}")
    diffs = [1]  # D(0..k), nonzero since the nodes are distinct
    for d in range(1, k + 1):
        diffs.append(diffs[-1] * (q**d - p**d))
    quotients = [(-1) ** (k - i) * (diffs[k] // (diffs[i] * diffs[k - i])) for i in range(k + 1)]
    column = []
    for n in ns:
        if n < 0 and 0 in nodes:
            raise DegenerateParametersError("negative power of a zero node")
        e = [j * (n - k) + j * (j + 1) // 2 for j in range(k + 1)]
        shift = -min(e)
        numerator = sum(c * q ** (e[i] + shift) * p ** (e[k - i] + shift) for i, c in enumerate(quotients))
        column.append(Fraction(numerator, diffs[k] * (p * q) ** shift))
    return column


def multinomial(params: SeqParams, n: int, parts: tuple[int, ...]) -> int:
    """Multinomial value as the telescoping product of coefficients.

    C(n; i_1, ..., i_r) = C(n, i_1) * C(n - i_1, i_2) * ... with the parts
    required to be nonnegative and sum to at most n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if any(part < 0 for part in parts):
        raise ValueError("parts must be nonnegative")
    if sum(parts) > n:
        raise ValueError(f"parts {parts} sum beyond n={n}")
    value = 1
    remaining = n
    for part in parts:
        value *= coeff_recurrence(params, remaining, part)
        remaining -= part
    return value


def coeff_inverse(params: SeqParams, n: int, k: int) -> int:
    """Entry (n, k) of the inverse of the lower-triangular matrix [C(n, k)].

    The entry is C(n, k) * a(n - k), where a(r) is the alternating sum, over
    all compositions (i_1, ..., i_s) of r, of (-1)**s * C(r; i_1, ..., i_s);
    the diagonal entry is 1.  Multiplying the resulting triangle against the
    coefficient triangle gives the identity matrix on either side.

    The sum is grouped by its first part i: since C(r; i, i_2, ...) =
    C(r, i) * C(r - i; i_2, ...) and the remaining parts run over all
    compositions of r - i with one sign flip, a(0) = 1 and
    a(m) = -sum over i = 1..m of C(m, i) * a(m - i).  That takes O(r**2)
    products over rows 0..r of the triangle, where the composition sum has
    2**(r-1) terms, and C(n, k) is read from ``coeff_recurrence``.
    """
    _check_indices(n, k)
    a: list[int] = []
    for row in triangle_rows(params, n - k):
        a.append(_composition_sum(row, a))
    return coeff_recurrence(params, n, k) * a[-1]


def inverse_rows(params: SeqParams, n_max: int) -> Iterator[list[int]]:
    """Rows 0..n_max of the inverse triangle, entry (n, k) = C(n, k) * a(n - k)
    as in ``coeff_inverse``, from one pass of ``triangle_rows``: a(n) is
    computed once, from row n, when that row is reached."""
    a: list[int] = []
    for row in triangle_rows(params, n_max):
        a.append(_composition_sum(row, a))
        yield list(map(mul, row, reversed(a)))


def _composition_sum(row: list[int], a: list[int]) -> int:
    """a(m) from row m of the triangle and a(0..m-1): a(0) = 1 and
    a(m) = -sum over i = 1..m of C(m, i) * a(m - i)."""
    return -sum(map(mul, row[1:], reversed(a))) if a else 1


ROUTE_NAMES = (
    "recurrence",
    "factorial",
    "product",
    "subset",
    "multiset",
    "partial-fractions",
    "inverse",
)


def coeff_route(params: SeqParams, n: int, k: int, route: str = "recurrence") -> int | Fraction:
    """Evaluate one triangle entry by a named route.

    The subset and multiset routes normalize their weight sums back to
    C(n, k): the subset sum is divided by (p*q)**(k*(k-1)/2), which needs
    p*q != 0 once k >= 2, and the multiset sum is taken over n - k + 1
    boxes.  Every route but partial fractions needs 0 <= k <= n and returns
    an int; that one takes any n and may return a Fraction for n < 0.  The
    inverse route returns the entry of the inverse triangle rather than
    C(n, k) itself.
    """
    if route == "recurrence":
        return coeff_recurrence(params, n, k)
    if route == "factorial":
        return coeff_factorial(params, n, k)
    if route == "product":
        return coeff_product(params, n, k)
    if route == "subset":
        _check_indices(n, k)
        shift = k * (k - 1) // 2
        weight = (params.p * params.q) ** shift
        if weight == 0:
            raise DegenerateParametersError(
                f"p*q == 0 with k={k}: subset sum vanishes identically"
            )
        return exact_div(coeff_lambda_subset(params, n, k), weight)
    if route == "multiset":
        _check_indices(n, k)
        return coeff_lambda_multiset(params, n - k + 1, k)
    if route == "partial-fractions":
        value = coeff_partial_fractions(params, n, k)
        return int(value) if value.denominator == 1 else value
    if route == "inverse":
        return coeff_inverse(params, n, k)
    raise ValueError(f"unknown route {route!r}; expected one of {ROUTE_NAMES}")
