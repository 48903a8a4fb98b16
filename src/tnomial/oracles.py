"""Brute-force combinatorial oracles.

Everything here counts or computes by direct enumeration or plain exact
linear algebra, deliberately avoiding the coefficient formulas, so that
agreement between an oracle and a formula route is evidence rather than
tautology.  Only the exact-arithmetic cores and the sequence term
functions are imported; the suites pair each oracle with the formulas.

Enumerations carry hard input caps plus a global budget on the number of
enumerated objects, configurable through the TNOMIAL_MAX_BUDGET
environment variable.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb, prod
from operator import mul

from .errors import BudgetExceededError, SingularMatrixError
from .record import Record
from .rings import exact_div
from .sequences import SeqParams, term_closed

DEFAULT_BUDGET = 5_000_000


def enumeration_budget() -> int:
    """Cap on enumerated objects; override with TNOMIAL_MAX_BUDGET."""
    raw = os.environ.get("TNOMIAL_MAX_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"TNOMIAL_MAX_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("TNOMIAL_MAX_BUDGET must be positive")
    return value


def _check_budget(size: int, what: str) -> None:
    budget = enumeration_budget()
    if size > budget:
        raise BudgetExceededError(f"{what} would enumerate {size} objects, budget is {budget}")


class BoxWeights(Record):
    """Positive ball counts for a row of boxes."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[int, ...]) -> None:
        weights = tuple(weights)
        if any(w < 1 for w in weights):
            raise ValueError("box weights must be positive integers")
        self._set(weights)

    @property
    def n(self) -> int:
        return len(self.weights)

    @classmethod
    def from_params(cls, params: SeqParams, n: int) -> BoxWeights:
        """Weights q**(i-1) * p**(n-i) for i = 1..n; needs p, q >= 1."""
        if params.p < 1 or params.q < 1:
            raise ValueError("box weights need p >= 1 and q >= 1")
        if n < 0:
            raise ValueError("n must be nonnegative")
        p, q = params.p, params.q
        return cls(tuple(q ** (i - 1) * p ** (n - i) for i in range(1, n + 1)))


def count_selections(boxes: BoxWeights, k: int, repetition: bool) -> int:
    """Number of ways to pick k balls, one from each chosen box.

    Enumerates every multiset (``repetition=True``) or subset of box
    indices and sums the products of the chosen boxes' weights.  Hard
    caps: at most 8 boxes and k <= 6.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    n = boxes.n
    if n > 8 or k > 6:
        raise BudgetExceededError(f"selection oracle capped at n <= 8, k <= 6, got n={n}, k={k}")
    if repetition:
        size = comb(n + k - 1, k) if n + k >= 1 else 1
    else:
        size = comb(n, k)
    _check_budget(size, "selection counting")
    chooser = combinations_with_replacement if repetition else combinations
    return sum(map(prod, chooser(boxes.weights, k)))


def count_bipartite_multigraphs(alpha: int, n: int, k: int) -> int:
    """Labeled bipartite multigraphs on n vertices with a distinguished
    k-vertex side and every cross pair joined by at most alpha - 1 edges.

    Enumerates each choice of the k-set and every edge-multiplicity
    assignment explicitly.  Hard caps: n <= 5 and alpha <= 3.
    """
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if n > 5 or alpha > 3:
        raise BudgetExceededError(f"bipartite oracle capped at n <= 5, alpha <= 3, got n={n}, alpha={alpha}")
    _check_budget(comb(n, k) * alpha ** (k * (n - k)), "bipartite counting")
    total = 0
    for side in combinations(range(n), k):
        rest = [v for v in range(n) if v not in side]
        pair_count = len(side) * len(rest)
        for _assignment in product(range(alpha), repeat=pair_count):
            total += 1
    return total


def count_acyclic_multidigraphs(p_val: int, n: int) -> int:
    """Labeled acyclic multi-digraphs on n vertices, arc multiplicities
    in {0, ..., p_val - 1}.

    Enumerates every support digraph once, as a tuple of per-vertex
    out-neighbour bitmasks, and checks it for a cycle by peeling: a vertex
    with no arc into the vertices that remain is removed until none are
    left, or none can be.  Each present arc then carries one of p_val - 1
    nonzero multiplicities independently.  Hard cap: n <= 4.
    """
    if p_val < 2:
        raise ValueError("p_val must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > 4:
        raise BudgetExceededError(f"acyclic-digraph oracle capped at n <= 4, got n={n}")
    _check_budget(2 ** (n * (n - 1)), "acyclic-digraph counting")
    everyone = (1 << n) - 1
    out_sets = [
        [(out, bin(out).count("1")) for out in range(everyone + 1) if not out >> v & 1] for v in range(n)
    ]
    total = 0
    for support in product(*out_sets):
        remaining = everyone
        while remaining:
            for v, (out, _) in enumerate(support):
                if remaining >> v & 1 and not out & remaining:
                    remaining ^= 1 << v
                    break
            else:
                break  # every remaining vertex has an arc into the rest: a cycle
        if not remaining:
            total += (p_val - 1) ** sum(arcs for _, arcs in support)
    return total


def count_acyclic_multidigraphs_recurrence(p_val: int, n: int) -> int:
    """Same count through inclusion-exclusion over the nonempty source set:
    a(m) = sum_{k=1..m} (-1)**(k+1) comb(m, k) p**(k*(m-k)) a(m-k), a(0) = 1."""
    if p_val < 2:
        raise ValueError("p_val must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    values = [1]
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            sign = 1 if (k + 1) % 2 == 0 else -1
            total += sign * comb(m, k) * p_val ** (k * (m - k)) * values[m - k]
        values.append(total)
    return values[n]


class TriMatrix(Record):
    """Lower-triangular matrix of exact numbers, ints or ``Fraction``s, kept
    as given; row i holds i + 1 entries.  Products are plain exact sums, so
    integer matrices multiply to an integer matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int | Fraction, ...], ...]) -> None:
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} has {len(row)} entries, expected {i + 1}")
        self._set(rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, order: int) -> TriMatrix:
        return cls(tuple(tuple(int(i == j) for j in range(i + 1)) for i in range(order)))

    def __matmul__(self, other: TriMatrix) -> TriMatrix:
        if not isinstance(other, TriMatrix):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("order mismatch")
        columns = [[other.rows[m][j] for m in range(j, other.order)] for j in range(other.order)]
        return TriMatrix(
            tuple(tuple(sum(map(mul, row[j:], columns[j])) for j in range(i + 1)) for i, row in enumerate(self.rows))
        )


def invert_triangular(matrix: TriMatrix) -> TriMatrix:
    """Exact inverse of a lower-triangular matrix by forward substitution.

    One column j at a time, entry (i, j) of the inverse is
    ([i == j] - sum_{m=j..i-1} M[i][m] inv[m][j]) / M[i][i].  The division
    is exact, through ``Fraction``, and skipped where M[i][i] is 1, so a
    unit-diagonal integer matrix has an integer inverse.
    """
    rows = matrix.rows
    for i, row in enumerate(rows):
        if row[i] == 0:
            raise SingularMatrixError(f"zero diagonal entry at row {i}")
    inverse: list[list[int | Fraction]] = [[] for _ in rows]
    for j in range(matrix.order):
        column: list[int | Fraction] = []
        for i, row in enumerate(rows[j:], j):
            entry = int(i == j) - sum(map(mul, row[j:i], column))
            if row[i] != 1:
                entry = Fraction(entry) / row[i]
            column.append(entry)
            inverse[i].append(entry)
    return TriMatrix(tuple(map(tuple, inverse)))


def volume_ratio(params: SeqParams, k: int, n: int) -> int:
    """Ratio of discrete box volumes, which is again a coefficient.

    The volume over levels k..n is the product of those terms; dividing by
    the volume of the 1..(n-k+1) box must be exact.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    m = n - k + 1
    numerator = prod(term_closed(params, s) for s in range(k, n + 1))
    denominator = prod(term_closed(params, s) for s in range(1, m + 1))
    return exact_div(numerator, denominator)
