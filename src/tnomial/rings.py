"""Exact arithmetic cores.

Everything here is immutable and exact: arbitrary-precision integers
(plain ``int``), a sparse bivariate polynomial ring over the integers, a
quadratic integer ring Z[t]/(t^2 - alpha*t - 1), and truncated formal
power series over any of those coefficient rings.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter, mul, sub
from typing import Iterable, Mapping, Sequence

from .errors import DivisibilityError, ParameterMismatchError
from .record import Record


_TWO_ADIC_BITS = 150_000
"""Quotients over this many bits by divisors over half as many bits are
found 2-adically: CPython's ``divmod`` is quadratic in the operand sizes,
and past this size (measured on CPython 3.11) a few Karatsuba products
beat it."""


def exact_div(a: int, b: int) -> int:
    """Quotient a / b when b divides a exactly; DivisibilityError otherwise.

    A large quotient by a large divisor (see ``_TWO_ADIC_BITS``) is found
    2-adically by ``_divide_2adic`` and multiplied back; any other by
    ``divmod``.
    """
    if b == 0:
        raise DivisibilityError(a, b)
    divisor_bits = b.bit_length()
    if min(a.bit_length() - divisor_bits, 2 * divisor_bits) > _TWO_ADIC_BITS:
        quot = _divide_2adic(a, b)
        if quot is None:
            raise DivisibilityError(a, b)
        return quot
    quot, rem = divmod(a, b)
    if rem:
        raise DivisibilityError(a, b)
    return quot


def _inverse_2adic(b: int, bits: int) -> int:
    """b**-1 modulo 2**bits for odd b, Newton-lifted from 64 bits: if
    b x = 1 + 2**h e, then b x (1 - 2**h e) = 1 modulo 2**(2h), and only
    e modulo 2**(bits - h) is needed."""
    mask = (1 << bits) - 1
    if bits <= 64:
        return pow(b & mask, -1, 1 << bits)
    h = (bits + 1) // 2
    x = _inverse_2adic(b, h)
    e = ((b & mask) * x >> h) & ((1 << (bits - h)) - 1)
    return (x - (x * e << h)) & mask


def _divide_2adic(a: int, b: int) -> int | None:
    """a / b for b != 0 if b divides a exactly, else None, with products only.

    Once the power of two in b is shifted out of both, an exact quotient
    below 2**n is a / b modulo 2**n.  It is found in two halves with the
    inverse of b modulo 2**h, h = ceil(n / 2) (Karp and Markstein): the low
    half from the low h bits of a, the high half from the next bits of
    a - low * b, which low makes divisible by 2**h.  When b does not divide
    a, the same steps give some other number, so the quotient is multiplied
    back and returned only if it gives a.
    """
    x, y = abs(a), abs(b)
    twos = (y & -y).bit_length() - 1
    x, y = x >> twos, y >> twos
    n = max(x.bit_length() - y.bit_length() + 1, 1)
    h = (n + 1) // 2
    inverse = _inverse_2adic(y, h)
    low = (x & ((1 << h) - 1)) * inverse & ((1 << h) - 1)
    mask = (1 << n) - 1
    rest = ((x & mask) - low * (y & mask) & mask) >> h
    quot = low | (rest * inverse & ((1 << (n - h)) - 1)) << h
    if (a < 0) != (b < 0):
        quot = -quot
    return quot if quot * b == a else None


def balanced_product(values: Sequence[int]) -> int:
    """Product of the values as a balanced tree of halves, so that the big
    multiplications pair operands of similar size (Bernstein's product
    tree); runs of up to 16 values go to ``math.prod``, as cheap as a loop."""
    if len(values) <= 16:
        return prod(values)
    mid = len(values) // 2
    return balanced_product(values[:mid]) * balanced_product(values[mid:])


def _pow_str(var: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return var
    return f"{var}^{exp}"


class _RingElement:
    """Subtraction and powers from a ring element's own ``+``, unary ``-``
    and ``*``; each subclass keeps its own ``__mul__``."""

    __slots__ = ()

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a ring element")
        result, base = self * 0 + 1, self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result


class BiPoly(_RingElement):
    """Polynomial in the two indeterminates p and q with integer coefficients.

    Sparse representation: a map from exponent pairs ``(i, j)``, standing
    for ``p**i * q**j``, to nonzero coefficients.  The map is canonical
    (zero coefficients are never stored), so structural equality of the
    maps is polynomial equality.  Instances are immutable; the first
    ``eval`` of one keeps its Horner plan for the later ones.
    """

    __slots__ = ("_terms", "_plan")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None) -> None:
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (i, j), coeff in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent pair ({i}, {j})")
                if coeff:
                    clean[(i, j)] = coeff
        self._terms = clean
        self._plan = None

    def __reduce__(self):
        return BiPoly, (self._terms,)

    @classmethod
    def one(cls) -> BiPoly:
        return cls.from_int(1)

    @classmethod
    def from_int(cls, value: int) -> BiPoly:
        return cls({(0, 0): value} if value else None)

    @classmethod
    def monomial(cls, i: int, j: int, coeff: int = 1) -> BiPoly:
        return cls({(i, j): coeff} if coeff else None)

    @classmethod
    def var_p(cls) -> BiPoly:
        return cls.monomial(1, 0)

    @classmethod
    def var_q(cls) -> BiPoly:
        return cls.monomial(0, 1)

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @staticmethod
    def _coerce(other: object) -> BiPoly | None:
        if isinstance(other, BiPoly):
            return other
        if isinstance(other, int):
            return BiPoly.from_int(other)
        return None

    def __add__(self, other: BiPoly | int) -> BiPoly:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self._terms)
        for exp, coeff in rhs._terms.items():
            total = merged.get(exp, 0) + coeff
            if total:
                merged[exp] = total
            else:
                del merged[exp]
        return BiPoly(merged)

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return BiPoly({exp: -coeff for exp, coeff in self._terms.items()})

    def __mul__(self, other: BiPoly | int) -> BiPoly:
        if isinstance(other, int):
            return BiPoly({exp: coeff * other for exp, coeff in self._terms.items()} if other else None)
        if not isinstance(other, BiPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                exp = (i1 + i2, j1 + j2)
                total = out.get(exp, 0) + c1 * c2
                if total:
                    out[exp] = total
                else:
                    del out[exp]
        return BiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> BiPoly:
        if len(self._terms) == 1 and exponent >= 0:  # a monomial: raise its one term, no products
            ((i, j), coeff), = self._terms.items()
            return BiPoly({(i * exponent, j * exponent): coeff**exponent})
        return super().__pow__(exponent)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if not self._terms:
            return hash(0)
        if set(self._terms) == {(0, 0)}:
            return hash(self._terms[(0, 0)])
        return hash(frozenset(self._terms.items()))

    def eval(self, p0: int, q0: int) -> int:
        """Exact evaluation at integer arguments: Horner in p over the distinct
        p-degrees, each q-power built once.  Both step by ``pow`` over the gaps
        between degrees that occur, so a sparse high power costs one ``pow``;
        a gap of 1, the usual one, is a plain product.  The steps come from
        the plan built on the first call and kept (``_horner_plan``)."""
        if self._plan is None:
            self._plan = self._horner_plan()
        q_gaps, p_gaps, coeffs, q_slots, last = self._plan
        power = 1
        q_powers = [power := power * (q0 if gap == 1 else q0**gap) for gap in q_gaps]
        acc = 0
        for gap, coeff, slot in zip(p_gaps, coeffs, q_slots):
            acc = (acc * p0 if gap == 1 else acc * p0**gap) + coeff * q_powers[slot]
        return acc * p0**last

    def _horner_plan(self) -> tuple:
        """The gaps between the distinct q-degrees, from 0 up; then, per term
        in descending p-degree, its p-gap from the term before, its
        coefficient and the index of its q-degree among the distinct ones,
        as three tuples; and the last p-degree.  When the distinct q-degrees
        are 0..d, as in every triangle entry, each is its own index, so the
        plan shares the polynomial's own exponents and coefficients."""
        keys = sorted(self._terms, reverse=True)
        if not keys:
            return (), (), (), (), 0
        p_degrees = tuple(map(itemgetter(0), keys))
        q_degrees = tuple(map(itemgetter(1), keys))
        distinct = sorted(set(q_degrees))
        if distinct[-1] != len(distinct) - 1:
            q_degrees = tuple(map(dict(zip(distinct, range(len(distinct)))).__getitem__, q_degrees))
        return (
            tuple(map(sub, distinct, [0, *distinct])),
            tuple(map(sub, p_degrees[:1] + p_degrees, p_degrees)),
            tuple(map(self._terms.__getitem__, keys)),
            q_degrees,
            p_degrees[-1],
        )

    def __str__(self) -> str:
        """Terms lexicographic on (p-degree, q-degree), leading term first."""
        out = ""
        for (i, j), coeff in sorted(self._terms.items(), reverse=True):
            size = str(abs(coeff)) if abs(coeff) != 1 or i == j == 0 else ""
            body = "*".join(s for s in (size, _pow_str("p", i), _pow_str("q", j)) if s)
            sign = "-" if coeff < 0 else "+"
            out += f" {sign} {body}" if out else ("-" + body if coeff < 0 else body)
        return out or "0"

    def __repr__(self) -> str:
        return f"BiPoly({self._terms!r})"


class QuadElem(Record, _RingElement):
    """Element a + b*t of the quadratic integer ring Z[t]/(t^2 - alpha*t - 1).

    t is the image of the larger root (alpha + sqrt(alpha^2 + 4)) / 2 and
    alpha - t the image of the smaller; their product reduces to exactly -1.
    Instances are immutable records that pickle and copy through the
    constructor; mixing elements of different alpha raises ParameterMismatchError.
    """

    __slots__ = ("a", "b", "alpha")

    def __init__(self, a: int, b: int, alpha: int) -> None:
        if alpha < 1:
            raise ValueError("alpha must be a positive integer")
        object.__setattr__(self, "a", a)  # three direct stores, cheaper than Record._set
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def from_int(cls, value: int, alpha: int) -> QuadElem:
        return cls(value, 0, alpha)

    @classmethod
    def root(cls, alpha: int) -> QuadElem:
        """t itself: the image of (alpha + sqrt(alpha^2 + 4)) / 2."""
        return cls(0, 1, alpha)

    @classmethod
    def conjugate_root(cls, alpha: int) -> QuadElem:
        """alpha - t: the image of (alpha - sqrt(alpha^2 + 4)) / 2."""
        return cls(alpha, -1, alpha)

    def _check(self, other: QuadElem) -> None:
        if self.alpha != other.alpha:
            raise ParameterMismatchError(
                f"cannot mix rings with alpha={self.alpha} and alpha={other.alpha}"
            )

    def __add__(self, other: QuadElem | int) -> QuadElem:
        if isinstance(other, int):
            return QuadElem(self.a + other, self.b, self.alpha)
        if not isinstance(other, QuadElem):
            return NotImplemented
        self._check(other)
        return QuadElem(self.a + other.a, self.b + other.b, self.alpha)

    __radd__ = __add__

    def __neg__(self) -> QuadElem:
        return QuadElem(-self.a, -self.b, self.alpha)

    def __mul__(self, other: QuadElem | int) -> QuadElem:
        if isinstance(other, int):
            return QuadElem(self.a * other, self.b * other, self.alpha)
        if not isinstance(other, QuadElem):
            return NotImplemented
        self._check(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # (a1 + b1 t)(a2 + b2 t) with t^2 = alpha*t + 1
        return QuadElem(
            a1 * a2 + b1 * b2,
            a1 * b2 + a2 * b1 + self.alpha * b1 * b2,
            self.alpha,
        )

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadElem):
            return (self.a, self.b, self.alpha) == (other.a, other.b, other.alpha)
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.alpha))

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}*t"

    def __repr__(self) -> str:
        return f"QuadElem({self.a}, {self.b}, alpha={self.alpha})"


class XSeries(Record):
    """Formal power series in x truncated at ``len(coefficients)``:
    ``coefficients[k]`` is the coefficient of x**k.  A product keeps the
    shorter operand's length, and each coefficient it keeps agrees with the
    untruncated product.  Works over any coefficient ring whose elements
    add to the int 0, where ``sum`` starts.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple) -> None:
        self._set(coefficients)

    def __mul__(self, other: XSeries) -> XSeries:
        a, b = self.coefficients, other.coefficients
        return XSeries(tuple(sum(map(mul, a[: k + 1], b[k::-1])) for k in range(min(len(a), len(b)))))


def series_product(factors: Iterable[tuple], order: int, one=1, reciprocals: Iterable = ()) -> tuple:
    """Coefficients 0..order-1 of the product of the linear factors a + b*x,
    each given as the pair (a, b), and of 1/(1 - w*x) for each w in
    ``reciprocals``, as a tuple; the empty product is one.

    Each factor is one descending pass acc[k] = a*acc[k] + b*acc[k-1] over
    one coefficient list, up to the product's current degree, so it costs
    O(order); each reciprocal is one ascending pass acc[k] += w * acc[k-1],
    never a geometric series.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    zero = one * 0
    acc = [one, *[zero] * (order - 1)][:order]
    top = 0  # acc[k] is zero for every k > top
    for a, b in factors:
        top = min(top + 1, order - 1)
        for k in range(top, 0, -1):  # descending: acc[k - 1] is still the old value
            acc[k] = a * acc[k] + b * acc[k - 1]
        if order:
            acc[0] = a * acc[0]
    for w in reciprocals:
        for k in range(1, order):
            acc[k] = acc[k] + w * acc[k - 1]
    return tuple(acc)
