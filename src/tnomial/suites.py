"""Sweep drivers for the identity and oracle checks.

Each suite is a private generator that walks a parameter grid and an
index range and yields one ``(*location, lhs, rhs)`` tuple per exact
comparison, computing each side only when the sweep asks for the next
point.  Its public wrapper hands the generator to ``report.sweep``, which
compares the pairs, stops at the first mismatch, counts what it compared
and decides the report's status.  No other module runs a sweep.  The CLI
and the acceptance tests both run through the public wrappers.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from itertools import accumulate, chain
from math import comb
from operator import mul

from .coefficients import (
    coeff_factorial,
    coeff_partial_fractions,
    coeff_recurrence,
    coeff_symbolic,
    factorial_row,
    inverse_rows,
    lambda_multiset_row,
    lambda_subset_row,
    partial_fraction_column,
    product_row,
    triangle_rows,
)
from .errors import DegenerateParametersError
from .identities import (
    _binom2,
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
from .oracles import (
    BoxWeights,
    TriMatrix,
    count_acyclic_multidigraphs,
    count_acyclic_multidigraphs_recurrence,
    count_bipartite_multigraphs,
    count_selections,
    invert_triangular,
    volume_ratio,
)
from .report import IdentityReport, sweep
from .rings import BiPoly, QuadElem, XSeries, exact_div
from .sequences import SeqParams, term_closed

def pq_grid(lo: int = -2, hi: int = 4) -> list[tuple[int, int]]:
    """All integer parameter pairs in the square [lo, hi] x [lo, hi]."""
    return [(p, q) for p in range(lo, hi + 1) for q in range(lo, hi + 1)]


Grid = Sequence[tuple[int, int]]

PQ_GRID = tuple(pq_grid())
POSITIVE_GRID = tuple(pq_grid(1, 3))
SELECTION_K_MAX = 6  # the most balls a selections-oracle point draws


def sample_grid(grid: list[tuple[int, int]], size: int, seed: int) -> list[tuple[int, int]]:
    """Deterministic subsample of a parameter grid."""
    if size >= len(grid):
        return list(grid)
    return random.Random(seed).sample(grid, size)


def _grid_label(grid: Grid) -> str:
    if not grid:
        return "empty grid"
    ps, qs = zip(*grid)
    return f"p in [{min(ps)}..{max(ps)}], q in [{min(qs)}..{max(qs)}]"


def _route_points(grid, n_max):
    for p, q in grid:
        params = SeqParams(p, q)
        terms = [term_closed(params, i) for i in range(n_max + 1)]
        # rows up to 2 * n_max: the multiset sum of (n, k) is C(n + k - 1, k)
        rows = list(_rows(triangle_rows, params, 2 * n_max))
        columns = [_partial_fraction_column(params, k, n_max) for k in range(n_max + 1)]
        for n in range(n_max + 1):
            factorial = factorial_row(params, n) if all(terms[1 : n + 1]) else None
            product = product_row(params, n)
            subset = lambda_subset_row(params, n)
            multiset = lambda_multiset_row(params, n) if n >= 1 else None
            for k, reference in enumerate(rows[n]):
                if factorial is not None:
                    yield p, q, n, k, "factorial", factorial[k], reference
                if k < len(product):
                    yield p, q, n, k, "product", product[k], reference
                yield p, q, n, k, "subset", subset[k], reference * (p * q) ** _binom2(k)
                if multiset is not None:
                    yield p, q, n, k, "multiset", multiset[k], rows[n + k - 1][k]
                if columns[k] is not None:
                    yield p, q, n, k, "partial-fractions", columns[k][n - k], reference


def _partial_fraction_column(params, k, n_max):
    """Entries (k, k)..(n_max, k) by partial fractions, or None where the
    route is undefined for every n >= 0 (p == q or coincident nodes)."""
    try:
        return partial_fraction_column(params, k, range(k, n_max + 1))
    except DegenerateParametersError:
        return None


def routes_suite(grid: Grid = PQ_GRID, n_max: int = 12) -> IdentityReport:
    """Agreement of the five numeric coefficient routes with the recurrence.

    Every route is read whole, never entry by entry: the factorial,
    product, subset and multiset routes as one row per (p, q, n), the
    partial-fraction route as one column per (p, q, k).  Per-route
    preconditions: the factorial ratio needs all terms up to n nonzero; the
    product and partial-fraction routes need non-coincident denominators or
    nodes and are skipped where degenerate.  The subset sum is compared as
    C(n, k) * (pq)**C(k,2) and the multiset sum as C(n + k - 1, k).  The
    symbolic triangle is checked over Z[p, q] by ``binomial_suite``.
    """
    keys = ("p", "q", "n", "k", "route")
    return sweep("route-agreement", _grid_label(grid), (n_max, n_max), keys, _route_points(grid, n_max))


def _product_points(p, q, n, form, series, row):
    """One point per coefficient k of the subset or the split series of n,
    keyed (p, q, n, form, k), over Z or Z[p, q] alike: coefficient k is
    (-1)**k q**C(k,2) p**C(e,2) C(n, k), C(n, k) read from ``row``, with
    e = k for the subset product and n - k for the split one, and 0 past
    degree n."""
    for k, lhs in enumerate(series):
        e = n - k if form == "split-gf" else k
        rhs = (-1) ** k * q ** (k * (k - 1) // 2) * p ** (e * (e - 1) // 2) * row[k] if k <= n else 0
        yield p, q, n, form, k, lhs, rhs


def _series_points(p, q, n, subset, multiset, rows):
    """One point per coefficient of the subset series and, unless None,
    the multiset series of n, against C read from ``rows``."""
    yield from _product_points(p, q, n, "subset-gf", subset, rows[n])
    if multiset is not None:
        for k, lhs in enumerate(multiset):
            yield p, q, n, "multiset-gf", k, lhs, rows[n + k - 1][k]


def _gf_points(grid, n_max, order):
    unit = (1, *[0] * order)[:order]
    for p, q in grid:
        params = SeqParams(p, q)
        # rows up to n_max + order - 2: the multiset coefficient k of n is C(n + k - 1, k)
        rows = list(_rows(triangle_rows, params, n_max + max(order - 2, 0)))
        for n in range(n_max + 1):
            subset = expand_subset_gf(n, params, order)
            multiset = expand_multiset_gf(n, order, params) if n >= 1 else None
            yield from _series_points(p, q, n, subset, multiset, rows)
            yield from _product_points(p, q, n, "split-gf", expand_split_gf(n, params), rows[n])
            if multiset is not None:
                yield p, q, n, "subset * multiset", (XSeries(subset) * XSeries(multiset)).coefficients, unit


def gf_suite(grid: Grid = PQ_GRID, n_max: int = 8, order: int = 10) -> IdentityReport:
    """Coefficient coherence of the three product expansions, one point per
    coefficient, plus the mutual-inverse check: subset series times
    multiset series equals 1."""
    points = _gf_points(grid, n_max, order)
    keys = ("p", "q", "n", "check", "k")
    return sweep("gf-coherence", _grid_label(grid), (n_max, order), keys, points)


def _binomial_points(n_max):
    params = SeqParams(BiPoly.var_p(), BiPoly.var_q())
    for n in range(1, n_max + 1):
        row = [coeff_symbolic(n, k) for k in range(n + 1)]
        for form, series in (("subset-gf", expand_subset_gf(n, params)), ("split-gf", expand_split_gf(n, params))):
            for point in _product_points(params.p, params.q, n, form, series, row):
                yield point[2:]  # keyed (n, form, k): p and q are the indeterminates


def binomial_suite(n_max: int = 7) -> IdentityReport:
    """The binomial-like theorem over Z[p, q]: every coefficient of the
    subset and the split product of each n against the symbolic triangle."""
    keys = ("n", "form", "k")
    return sweep("binomial-like", "symbolic", (n_max, n_max), keys, _binomial_points(n_max))


def _orthogonality_points(grid, n_max):
    for p, q in grid:
        params = SeqParams(p, q)
        rows = list(_rows(triangle_rows, params, 2 * n_max - 1))
        for n in range(1, n_max + 1):
            # both series of n once, to the highest order any s <= n_max reads
            subset = expand_subset_gf(n, params, n_max + 1)
            multiset = expand_multiset_gf(n, n_max + 1, params)
            yield from _series_points(p, q, n, subset, multiset, rows)
            for s in range(1, n_max + 1):
                for check, value, expected in _orthogonal_sums(params, n, s, subset, multiset, rows):
                    yield p, q, n, check, s, value, expected


def orthogonality_suite(grid: Grid = PQ_GRID, n_max: int = 8) -> IdentityReport:
    """Both series of each n, coefficient by coefficient, and their
    orthogonality sums at every s up to n_max."""
    points = _orthogonality_points(grid, n_max)
    keys = ("p", "q", "n", "check", "k")
    return sweep("orthogonality", _grid_label(grid), (n_max, n_max), keys, points)


def _vandermonde_points(grid, nm_max, notes):
    interior_found = False
    for p, q in grid:
        params = SeqParams(p, q)
        rows = list(_rows(triangle_rows, params, 2 * nm_max))
        for n in range(nm_max + 1):
            for m in range(nm_max + 1):
                for k in range(n + m + 1):
                    lhs, rhs_proof, rhs_plain = _vandermonde_at(params, n, m, k, rows)
                    yield p, q, n, m, k, lhs, rhs_proof
                    if rhs_plain != lhs:
                        interior = min(n, m, k) >= 1
                        if not notes or (interior and not interior_found):
                            kind = "interior" if interior else "boundary"
                            notes.append(
                                f"plain-exponent variant fails ({kind}) at p={p}, q={q}, "
                                f"n={n}, m={m}, k={k}: {rhs_plain} != {lhs}"
                            )
                            interior_found = interior_found or interior
    if not notes:
        notes.append("plain-exponent variant never refuted on this grid")


def vandermonde_suite(grid: Grid = POSITIVE_GRID, nm_max: int = 5) -> IdentityReport:
    """Convolution identity sweep; the adopted exponent reading must hold
    everywhere, and the first counterexample to the rejected plain-exponent
    reading is recorded in the notes."""
    notes: list[str] = []
    points = _vandermonde_points(grid, nm_max, notes)
    keys = ("p", "q", "n", "m", "k")
    return sweep("vandermonde", _grid_label(grid), (nm_max, 2 * nm_max), keys, points, notes)


def _unit_sum_points(grid, k_max):
    for p, q in grid:
        params = SeqParams(p, q)
        for k in range(k_max + 1):
            try:
                total = coeff_partial_fractions(params, k, k)
            except DegenerateParametersError:
                continue
            yield p, q, k, total, 1


def equal1_suite(grid: Grid = PQ_GRID, k_max: int = 8) -> IdentityReport:
    """Partial-fraction sum at n = k must be exactly 1 wherever the nodes
    are pairwise distinct."""
    points = _unit_sum_points(grid, k_max)
    return sweep("unit-sum", _grid_label(grid), (k_max, k_max), ("p", "q", "k"), points)


def _rows(rows_of, params: SeqParams, n_max: int):
    """``rows_of(params, n_max)``, or no rows for n_max < 0, where a suite's
    index range is empty."""
    return rows_of(params, n_max) if n_max >= 0 else iter(())


def _inversion_points(grid, order):
    if order < 0:  # no entries: the two products of empty matrices would hold on nothing
        return
    size = order + 1
    identity = TriMatrix.identity(size)
    for p, q in grid:
        params = SeqParams(p, q)
        triangle = TriMatrix(tuple(map(tuple, _rows(triangle_rows, params, order))))
        inverse = TriMatrix(tuple(map(tuple, _rows(inverse_rows, params, order))))
        substituted = invert_triangular(triangle)
        for n in range(size):
            for k in range(n + 1):
                yield p, q, "entry", n, k, inverse.rows[n][k], substituted.rows[n][k]
        yield p, q, "triangle @ inverse", triangle @ inverse, identity
        yield p, q, "inverse @ triangle", inverse @ triangle, identity


def inversion_suite(grid: Grid = PQ_GRID, order: int = 8) -> IdentityReport:
    """The composition-sum inverse must invert the coefficient triangle on
    both sides and match the exact forward-substitution inverse entrywise."""
    keys = ("p", "q", "check", "n", "k")
    return sweep("inversion", _grid_label(grid), (order, order), keys, _inversion_points(grid, order))


def fibonomial_suite(alpha: int, n_max: int = 10) -> IdentityReport:
    """Verify the Fibonomial identity family up to n_max.

    (a) sequence splitting: f(k+m) = f(m-1) f(k) + f(k+1) f(m);
    (b) triangle recurrence: C(n,k) = f(n-k-1) C(n-1,k-1) + f(k+1) C(n-1,k)
        against the factorial ratio;
    (c) the subset product prod_{s=1..n} (1 - q**(s-1) p**(n-s) x), over
        the ring of ``params.p`` and ``params.q`` at (p, q) = (t, alpha - t)
        in Z[t]/(t^2 - alpha*t - 1), has t-free coefficients (-1)**C(k+1,2) C(n, k).
    """
    if alpha < 1:
        raise ValueError("alpha must be positive")
    points = _fibonomial_points(alpha, n_max)
    return sweep("fibonomial", f"alpha={alpha}", (n_max, n_max), ("n", "k"), points)


def _fibonomial_points(alpha: int, n_max: int):
    fib = [alpha_fibonacci(alpha, i) for i in range(n_max + 2)]
    factorials = list(accumulate(fib[1 : n_max + 1], mul, initial=1))  # f(1)...f(i) at i

    def coefficient(n: int, k: int) -> int:  # the Fibonomial coefficient, off one factorial list
        return exact_div(factorials[n], factorials[k] * factorials[n - k])

    for n in range(2, n_max + 1):
        for k in range(1, n):
            m = n - k
            yield n, k, fib[n], fib[m - 1] * fib[k] + fib[k + 1] * fib[m]

    for n in range(1, n_max + 1):
        for k in range(1, n):
            m = n - k
            recurrence = fib[m - 1] * coefficient(n - 1, k - 1) + fib[k + 1] * coefficient(n - 1, k)
            yield n, k, coefficient(n, k), recurrence

    roots = SeqParams(QuadElem.root(alpha), QuadElem.conjugate_root(alpha))
    for n in range(1, n_max + 1):
        series = expand_subset_gf(n, roots)  # the subset product at (p, q) = (t, alpha - t)
        for k in range(n + 1):
            # a QuadElem equals an int only when it is t-free
            yield n, k, series[k], (-1) ** _binom2(k + 1) * coefficient(n, k)


def _specialization_points(n_max):
    ones = SeqParams(1, 1)
    for n, inverse in enumerate(_rows(inverse_rows, ones, n_max)):
        for k in range(n + 1):
            yield "pascal", 1, 1, 1, n, k, coeff_recurrence(ones, n, k), comb(n, k)
            yield "pascal-inverse", 1, 1, 1, n, k, inverse[k], (-1) ** (n - k) * comb(n, k)

    for q_val in (2, 3):
        params = SeqParams(1, q_val)
        for n in range(min(n_max, 6) + 1):
            for k in range(n + 1):
                # an exact Fraction, so a non-integral sum cannot equal C
                explicit = gaussian_explicit(q_val, n, k)
                yield "gaussian-explicit", 1, q_val, 1, n, k, explicit, coeff_recurrence(params, n, k)
            phi, assembled = gaussian_basis(q_val, n)
            for k in range(n + 1):
                yield "gaussian-phi", 1, q_val, 1, n, k, phi[k], gaussian_inverse_entry(q_val, n, k)
                yield "gaussian-basis", 1, q_val, 1, n, k, assembled[k], int(k == n)
        for n, inverse in enumerate(_rows(inverse_rows, params, n_max)):
            for k, entry in enumerate(inverse):
                yield "gaussian-inverse", 1, q_val, 1, n, k, entry, gaussian_inverse_entry(q_val, n, k)

    for p, q in ((2, 3), (1, 2), (2, 2)):
        bases = [factorial_row(SeqParams(p, q), n) for n in range(n_max + 1)]
        for scale in (2, 3):
            scaled = SeqParams(p, q, scale)
            for n in range(n_max + 1):
                for k in range(n + 1):
                    value = coeff_factorial(scaled, n, k)
                    yield "scale", p, q, scale, n, k, value, bases[n][k]
                    yield "scale", p, q, scale, n, k, value, coeff_recurrence(scaled, n, k)


def specialization_suite(n_max: int = 8) -> IdentityReport:
    """Classical specializations.

    p = q = 1 reduces the triangle to Pascal's; p = 1 gives Gaussian
    coefficients whose explicit sum, basis expansion (n <= 6) and signed
    inverse entries must all line up; and the coefficients must be
    invariant under the sequence scale.
    """
    label = "pascal, gaussian q in {2, 3}, scale in {1, 2, 3}"
    keys = ("case", "p", "q", "scale", "n", "k")
    return sweep("specializations", label, (n_max, n_max), keys, _specialization_points(n_max))


def _selection_points(n_max):
    for p, q in POSITIVE_GRID:
        params = SeqParams(p, q)
        for n in range(1, n_max + 1):
            boxes = BoxWeights.from_params(params, n)
            for k in range(SELECTION_K_MAX + 1):
                with_rep = count_selections(boxes, k, repetition=True)
                yield p, q, n, k, with_rep, coeff_recurrence(params, n + k - 1, k)
                without_rep = count_selections(boxes, k, repetition=False)
                expected = (
                    coeff_recurrence(params, n, k) * (p * q) ** _binom2(k) if k <= n else 0
                )
                yield p, q, n, k, without_rep, expected


def selections_oracle_suite(n_max: int = 8) -> IdentityReport:
    """Brute-force ball selections against the coefficient formulas."""
    points = _selection_points(n_max)
    return sweep("selections-oracle", "p, q in [1..3]", (n_max, SELECTION_K_MAX), ("p", "q", "n", "k"), points)


def _bipartite_points(n_max):
    for alpha in (1, 2, 3):
        params = SeqParams(alpha, alpha)
        for n in range(n_max + 1):
            for k in range(n + 1):
                counted = count_bipartite_multigraphs(alpha, n, k)
                yield alpha, n, k, counted, comb(n, k) * alpha ** (k * (n - k))
                yield alpha, n, k, counted, coeff_recurrence(params, n, k)


def bipartite_oracle_suite(n_max: int = 5) -> IdentityReport:
    """Brute-force bipartite multigraph counts against the diagonal case."""
    points = _bipartite_points(n_max)
    return sweep("bipartite-oracle", "alpha in [1..3]", (n_max, n_max), ("alpha", "n", "k"), points)


ACYCLIC_BASE_COUNTS = (1, 1, 3, 25, 543)


def _dag_points(n_max):
    base = []  # p = 2, counted once per n and compared twice
    for n in range(n_max + 1):
        base.append(count_acyclic_multidigraphs(2, n))
        yield 2, n, base[n], ACYCLIC_BASE_COUNTS[n]
    for p_val in (2, 3):
        for n in range(n_max + 1):
            brute = base[n] if p_val == 2 else count_acyclic_multidigraphs(p_val, n)
            yield p_val, n, brute, count_acyclic_multidigraphs_recurrence(p_val, n)


def dag_oracle_suite(n_max: int = 4) -> IdentityReport:
    """Brute-force acyclic multi-digraph counts: frozen values for
    multiplicity bound 2, and recurrence agreement for bounds 2 and 3.
    Past n_max = 4 the counter raises ``BudgetExceededError``."""
    return sweep("acyclic-oracle", "p in {2, 3}", (n_max, n_max), ("p", "n"), _dag_points(n_max))


def _volume_points(n_max):
    for p, q in POSITIVE_GRID:
        params = SeqParams(p, q)
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                yield p, q, n, k, volume_ratio(params, k, n), coeff_recurrence(params, n, n - k + 1)


def volume_oracle_suite(n_max: int = 8) -> IdentityReport:
    """Box-volume ratios against the coefficient triangle."""
    points = _volume_points(n_max)
    return sweep("volume-oracle", "p, q in [1..3]", (n_max, n_max), ("p", "q", "n", "k"), points)


def verify_inverse_relation(p_val: int, n_max: int = 8) -> IdentityReport:
    """Check the diagonal-case inverse against the acyclic-digraph counts:
    inverse entry (n, k) must equal (-1)**(n-k) * a(n-k) * comb(n, k) *
    p**(k*(n-k)), with a() from the inclusion-exclusion recurrence."""
    if p_val < 2:
        raise ValueError("p_val must be at least 2")
    if n_max > 8:
        raise ValueError("n_max capped at 8")
    points = _inverse_relation_points(p_val, n_max)
    return sweep("inverse-relation", f"p=q={p_val}", (n_max, n_max), ("n", "k"), points)


def _inverse_relation_points(p_val: int, n_max: int):
    dag_counts = [count_acyclic_multidigraphs_recurrence(p_val, r) for r in range(n_max + 1)]
    for n, row in enumerate(_rows(inverse_rows, SeqParams(p_val, p_val), n_max)):
        for k, entry in enumerate(row):
            expected = (-1) ** (n - k) * dag_counts[n - k] * comb(n, k) * p_val ** (k * (n - k))
            yield n, k, entry, expected


def _given(**bounds: object) -> dict[str, object]:
    """The arguments that were given; each suite's own default fills the rest."""
    return {name: value for name, value in bounds.items() if value is not None}


_IDENTITY_CALLS = {  # name: call whose parameters are the ``run_verify`` options that the suite reads
    "routes": lambda grid, n_max: [routes_suite(**_given(grid=grid, n_max=n_max))],
    "gf": lambda grid, n_max, order: [gf_suite(**_given(grid=grid, n_max=n_max, order=order))],
    "binomial": lambda n_max: [binomial_suite(**_given(n_max=n_max))],
    "orthogonality": lambda grid, n_max: [orthogonality_suite(**_given(grid=grid, n_max=n_max))],
    "vandermonde": lambda grid, n_max: [vandermonde_suite(**_given(grid=grid, nm_max=n_max))],
    "equal1": lambda grid, n_max: [equal1_suite(**_given(grid=grid, k_max=n_max))],
    "inversion": lambda grid, n_max: [inversion_suite(**_given(grid=grid, order=n_max))],
    "fibonomial": lambda n_max, alpha: [
        fibonomial_suite(a, **_given(n_max=n_max)) for a in ((1, 2) if alpha is None else (alpha,))
    ],
    "specializations": lambda n_max: [specialization_suite(**_given(n_max=n_max))],
}

_ORACLE_CALLS = {  # name: (largest n_max: the brute-force counter's cap, or the suite's own range, call)
    "selections": (8, lambda n: [selections_oracle_suite(**_given(n_max=n))]),
    "bipartite": (5, lambda n: [bipartite_oracle_suite(**_given(n_max=n))]),
    "dag": (4, lambda n: [dag_oracle_suite(**_given(n_max=n))]),
    "volume": (8, lambda n: [volume_oracle_suite(**_given(n_max=n))]),
    "inverse-relation": (8, lambda n: [verify_inverse_relation(p, **_given(n_max=n)) for p in (2, 3)]),
}

IDENTITY_SUITES = tuple(_IDENTITY_CALLS)

ORACLE_SUITES = tuple(_ORACLE_CALLS)


IDENTITY_OPTIONS = {
    name: call.__code__.co_varnames[: call.__code__.co_argcount] for name, call in _IDENTITY_CALLS.items()
}
"""The ``run_verify`` options each identity suite reads, its call's
parameter names; ``all`` reads each option that some suite reads."""
IDENTITY_OPTIONS["all"] = tuple(dict.fromkeys(chain.from_iterable(IDENTITY_OPTIONS.values())))


def run_verify(
    identity: str,
    grid: Grid | None = None,
    n_max: int | None = None,
    order: int | None = None,
    alpha: int | None = None,
) -> list[IdentityReport]:
    """Run one named identity suite (or all of them) and collect reports;
    an option left as None takes the suite's default, and ``alpha`` replaces
    the fibonomial suite's default multipliers 1 and 2 with that one.  A
    suite given an option it does not read (see ``IDENTITY_OPTIONS``) raises
    ValueError; ``all`` passes each option only to the suites that read it."""
    if identity not in IDENTITY_OPTIONS:
        raise ValueError(f"unknown identity suite {identity!r}")
    options = {"grid": grid, "n_max": n_max, "order": order, "alpha": alpha}
    unread = [name for name, value in options.items() if value is not None and name not in IDENTITY_OPTIONS[identity]]
    if unread:
        raise ValueError(f"the {identity} suite does not read {', '.join(unread)}")
    names = IDENTITY_SUITES if identity == "all" else (identity,)
    return [report for name in names for report in _IDENTITY_CALLS[name](*map(options.get, IDENTITY_OPTIONS[name]))]


def run_oracle(which: str, n_max: int | None = None) -> list[IdentityReport]:
    """Run one named oracle cross-check (or all of them); ``n_max`` None
    takes each oracle's default, and larger values are capped at the oracle's
    largest n_max, with a note on each report saying so."""
    if which == "all":
        return [report for name in ORACLE_SUITES for report in run_oracle(name, n_max)]
    if which not in _ORACLE_CALLS:
        raise ValueError(f"unknown oracle suite {which!r}")
    cap, call = _ORACLE_CALLS[which]
    if n_max is None or n_max <= cap:
        return call(n_max)
    note = f"n_max capped at {cap} (asked {n_max})"
    return [
        IdentityReport(r.identity_id, r.params, r.bounds, r.status, r.first_counterexample, (*r.notes, note), r.checked)
        for r in call(cap)
    ]
