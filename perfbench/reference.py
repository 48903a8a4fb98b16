"""Exact reference values and output checks, independent of tnomial.

Nothing here imports tnomial.  Coefficients come from closed forms that no
tnomial route uses:

* generic pairs (|p| != |q|): the cyclotomic factorization
  C(n, k) = prod Phi_d(q, p) over the d >= 2 with
  floor(n/d) - floor(k/d) - floor((n-k)/d) = 1, where
  Phi_d(q, p) = prod_{e | d} (q**e - p**e) ** mu(d/e) is the homogenized
  cyclotomic polynomial (Knuth & Wilf 1989);
* p == q: comb(n, k) * p**(k*(n-k));
* p == -q: p**(k*(n-k)) times the Gaussian coefficient at -1, which is 0
  for n even and k odd and comb(n//2, k//2) otherwise.

Whole rows of a generic pair walk C(n, k) = C(n, k-1) * T(n-k+1) / T(k)
with exact integer division, far cheaper than one product per entry.

Multinomials use the same factorization with exponents
floor(n/d) - sum floor(part/d) - floor(rest/d); inverse-triangle entries
use forward substitution over these values.  The checkers parse what the
CLI printed and return an error string, or None when the output is right.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import comb


def _mobius(n: int) -> int:
    result, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    return -result if m > 1 else result


def product(values: list[int]) -> int:
    """Balanced product tree, so big factors meet big factors."""
    if not values:
        return 1
    while len(values) > 1:
        paired = [values[i] * values[i + 1] for i in range(0, len(values) - 1, 2)]
        if len(values) % 2:
            paired.append(values[-1])
        values = paired
    return values[0]


def bits(value: object) -> int:
    """Exact size of a result: bits of an int, a Fraction, a list of them,
    or the coefficients of a polynomial's ``terms`` map."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return abs(value.numerator).bit_length() + value.denominator.bit_length()
    if isinstance(value, (list, tuple)):
        return sum(bits(item) for item in value)
    terms = getattr(value, "terms", None)
    if isinstance(terms, dict):
        return sum(abs(coeff).bit_length() for coeff in terms.values())
    raise TypeError(f"no bit size for {type(value).__name__}")


class Reference:
    """Coefficients of one parameter pair, with the cyclotomic values cached."""

    def __init__(self, p: int, q: int) -> None:
        self.p, self.q = p, q
        self._phi: dict[int, int] = {}

    def _cyclotomic(self, d: int) -> int:
        value = self._phi.get(d)
        if value is None:
            numerator, denominator = [], []
            for e in range(1, d + 1):
                if d % e == 0:
                    mu = _mobius(d // e)
                    if mu:
                        (numerator if mu > 0 else denominator).append(self.q**e - self.p**e)
            value, remainder = divmod(product(numerator), product(denominator))
            if remainder:
                raise ArithmeticError(f"Phi_{d}({self.q}, {self.p}) is not integral")
            self._phi[d] = value
        return value

    def multinomial(self, n: int, parts: tuple[int, ...]) -> int:
        """C(n; parts) with the remainder n - sum(parts) as a last part."""
        rest = n - sum(parts)
        p, q = self.p, self.q
        if p == q or p == -q:
            value, remaining = 1, n
            for part in parts:
                value *= self.coefficient(remaining, part)
                remaining -= part
            return value
        factors = []
        for d in range(2, n + 1):
            exponent = n // d - rest // d - sum(part // d for part in parts)
            if exponent:
                factors.extend([self._cyclotomic(d)] * exponent)
        return product(factors)

    def coefficient(self, n: int, k: int) -> int:
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
        p, q = self.p, self.q
        if p == q:
            return comb(n, k) * p ** (k * (n - k))
        if p == -q:
            gaussian = 0 if n % 2 == 0 and k % 2 else comb(n // 2, k // 2)
            return gaussian * p ** (k * (n - k))
        return self.multinomial(n, (k,))

    def row(self, n: int) -> list[int]:
        p, q = self.p, self.q
        if p == q or p == -q:
            return [self.coefficient(n, k) for k in range(n + 1)]
        terms = [(q**i - p**i) // (q - p) for i in range(n + 1)]
        values = [1]
        for k in range(1, n + 1):
            value, remainder = divmod(values[-1] * terms[n - k + 1], terms[k])
            if remainder:
                raise ArithmeticError(f"C({n}, {k}) at ({p}, {q}) is not integral")
            values.append(value)
        return values

    def inverse_entry(self, n: int, k: int) -> int:
        """Entry (n, k) of the inverse of the unitriangular matrix [C(i, j)]."""
        column = {k: 1}
        for i in range(k + 1, n + 1):
            column[i] = -sum(self.coefficient(i, j) * column[j] for j in range(k, i))
        return column[n]


def _row_values(text: str, fmt: str) -> list[list[int]]:
    if fmt == "json":
        return [[int(value) for value in row] for row in json.loads(text)["rows"]]
    if fmt == "csv":
        rows: list[list[int]] = []
        for record in list(csv.DictReader(io.StringIO(text))):
            n, k = int(record["n"]), int(record["k"])
            if n == len(rows):
                rows.append([])
            if (n, k) != (len(rows) - 1, len(rows[-1])):
                raise ValueError(f"csv entry ({n}, {k}) out of order")
            rows[-1].append(int(record["value"]))
        return rows
    rows = []
    for n, line in enumerate(text.splitlines()):
        head, *cells = line.split()
        if head != f"n={n}":
            raise ValueError(f"row label {head!r} where n={n} was expected")
        rows.append([int(cell) for cell in cells])
    return rows


def check_table(text: str, fmt: str, p: int, q: int, n_max: int) -> tuple[str | None, int]:
    """Error message or None, and the bits of the printed entries."""
    rows = _row_values(text, fmt)
    if len(rows) != n_max + 1:
        return f"{len(rows)} rows printed, {n_max + 1} expected", 0
    ref = Reference(p, q)
    for n, row in enumerate(rows):
        if row != ref.row(n):
            return f"row {n} at ({p}, {q}) differs from the reference", 0
    return None, bits(rows)


def check_coeff(text: str, fmt: str, expected: int) -> str | None:
    if fmt == "json":
        value = int(json.loads(text)["value"])
    elif fmt == "csv":
        (record,) = list(csv.DictReader(io.StringIO(text)))
        value = int(record["value"])
    else:
        value = int(text.strip())
    return None if value == expected else f"printed a wrong value ({bits(value)} bits)"


def check_reports(text: str, fmt: str) -> str | None:
    """Every printed report must hold, and there must be at least one."""
    if fmt == "json":
        statuses = [report["status"] for report in json.loads(text)]
    elif fmt == "csv":
        statuses = [record["status"] for record in csv.DictReader(io.StringIO(text))]
    else:
        statuses = [
            line.split("]", 1)[1].split()[0].lower()
            for line in text.splitlines()
            if line.startswith("[")
        ]
    if not statuses:
        return "no reports printed"
    failing = [status for status in statuses if status != "holds"]
    return f"{len(failing)} of {len(statuses)} reports do not hold" if failing else None
