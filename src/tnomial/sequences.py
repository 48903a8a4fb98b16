"""Tileable two-parameter integer sequences.

A sequence T(p, q) is defined by the ordinary generating function
``scale * x / ((1 - p*x) * (1 - q*x))``.  Its n-th term is the
homogeneous sum of q**(n-i) * p**(i-1) over i = 1..n, which collapses to
(q**n - p**n) / (q - p) for p != q and to n * q**(n-1) on the diagonal.
p = q = 1 gives the natural numbers, p = 1 the base-q repunits, and
tuning scale rescales every term by the same positive integer.
"""

from __future__ import annotations

from typing import Iterator

from .record import Record
from .rings import balanced_product, exact_div


class SeqParams(Record):
    """Sequence parameters; ``scale`` is the value of the first term.

    ``p`` and ``q`` may be elements of any ring that mixes with int (the
    product expansions run in their ring); the routes that divide need ints."""

    __slots__ = ("p", "q", "scale")

    def __init__(self, p: int, q: int, scale: int = 1) -> None:
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        self._set(p, q, scale)


def term_closed(params: SeqParams, n: int) -> int:
    """n-th term via the closed form; index 0 maps to 0."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    if n == 0:
        return 0
    p, q = params.p, params.q
    if p == q:
        base = n * q ** (n - 1)
    else:
        base = exact_div(q**n - p**n, q - p)
    return params.scale * base


def term_factorial(params: SeqParams, n: int) -> int:
    """Product of the first n terms; the empty product for n = 0."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    return _term_product(params, 1, n + 1)


def _term_product(params: SeqParams, lo: int, hi: int) -> int:
    """Product of the terms lo..hi-1 by ``rings.balanced_product``."""
    return balanced_product([term_closed(params, i) for i in range(lo, hi)])


def compositions_of(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All compositions of n into exactly ``parts`` positive parts, each a
    tuple of its parts.

    Yields in ascending lexicographic order; the count is the ordinary
    binomial coefficient of (n - 1) over (parts - 1).
    """
    if n < 1 or parts < 1:
        raise ValueError("n and parts must be positive")
    return _compositions(n, parts, ())


def _compositions(n: int, parts: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield prefix + (n,)
        return
    for first in range(1, n - parts + 2):
        yield from _compositions(n - first, parts - 1, prefix + (first,))
