"""Shared exception types."""

from __future__ import annotations


class DivisibilityError(ArithmeticError):
    """An exact integer division failed.

    Every ratio taken in this library is provably an integer, so a
    remainder always points at a genuine bug or a violated precondition.
    """

    def __init__(self, numerator: int, denominator: int) -> None:
        self.numerator = numerator
        self.denominator = denominator
        super().__init__(f"{_operand(numerator)} is not exactly divisible by {_operand(denominator)}")


def _operand(value: int) -> str:
    """``str(value)``, or its bit length past the interpreter's limit on
    int-to-str digits; the exact operands stay on the error."""
    try:
        return str(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit integer>"


class ParameterMismatchError(ValueError):
    """Operands belong to rings with different defining parameters."""


class DegenerateParametersError(ValueError):
    """Parameters violate a distinctness precondition of a formula,
    e.g. p = q in a route that divides by p - q, or coincident
    interpolation nodes in a partial-fraction sum."""


class BudgetExceededError(RuntimeError):
    """A brute-force enumeration would exceed its hard budget."""


class SingularMatrixError(ArithmeticError):
    """A triangular matrix has a zero diagonal entry and cannot be inverted."""
