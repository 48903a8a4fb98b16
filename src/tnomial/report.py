"""Verification outcome record shared by the identity and oracle suites,
and the one exact comparison driver that produces it."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .record import Record


def decimal_str(value: object) -> str:
    """``str(value)``, also for integers (and fractions of them) past the
    interpreter's limit on int-to-str digits.

    Such an integer is split by a power of ten into halves that are
    rendered the same way; no interpreter-wide setting is changed.
    """
    try:
        return str(value)
    except ValueError:
        if isinstance(value, Fraction):
            return f"{decimal_str(value.numerator)}/{decimal_str(value.denominator)}"
        if not isinstance(value, int):
            raise
    if value < 0:
        return "-" + decimal_str(-value)
    half = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**half)
    return decimal_str(high) + decimal_str(low).zfill(half)


class IdentityReport(Record):
    """Result of sweeping one identity over a parameter and index range.

    ``status`` is ``"holds"`` when every compared pair matched,
    ``"fails"`` at the first mismatch and ``"vacuous"`` when the sweep
    compared nothing.  ``first_counterexample`` maps location labels
    (``n``, ``k``, ``p``, ...) and the two mismatched sides (``lhs``,
    ``rhs``) to their values; it is present exactly when ``status`` is
    ``"fails"``.  ``notes`` carries informational findings that do not
    affect the status, e.g. a documented counterexample to a rejected
    variant of the identity.  ``checked`` counts the compared
    ``(lhs, rhs)`` pairs, the mismatched one included; it is zero exactly
    when ``status`` is ``"vacuous"``.
    """

    __slots__ = ("identity_id", "params", "bounds", "status", "first_counterexample", "notes", "checked")

    def __init__(
        self,
        identity_id: str,
        params: str,
        bounds: tuple[int, int],
        status: str,
        first_counterexample: dict | None = None,
        notes: tuple[str, ...] = (),
        checked: int = 0,
    ) -> None:
        if status not in ("holds", "fails", "vacuous"):
            raise ValueError(f"bad status {status!r}")
        if (status == "fails") != (first_counterexample is not None):
            raise ValueError("status 'fails' must come with a counterexample and no other status may")
        if checked < 0 or (status == "vacuous") != (checked == 0):
            raise ValueError("status 'vacuous' must come with checked == 0 and no other status may")
        self._set(identity_id, params, bounds, status, first_counterexample, notes, checked)

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    def to_dict(self) -> dict:
        """JSON-friendly dict with every number rendered as a decimal string."""
        ce = None
        if self.first_counterexample is not None:
            ce = {key: decimal_str(value) for key, value in self.first_counterexample.items()}
        return {
            "identity": self.identity_id,
            "params": self.params,
            "n_max": str(self.bounds[0]),
            "k_max": str(self.bounds[1]),
            "status": self.status,
            "counterexample": ce,
            "notes": list(self.notes),
            "checked": str(self.checked),
        }


def sweep(
    identity_id: str,
    params_label: str,
    bounds: tuple[int, int],
    keys: tuple[str, ...],
    points: Iterable[tuple],
    notes: Sequence[str] = (),
) -> IdentityReport:
    """Compare the ``(*location, lhs, rhs)`` tuples of ``points`` exactly.

    Stops at the first ``lhs != rhs`` and reports it with ``keys`` zipped
    onto its location (a shorter location leaves the trailing keys out).
    ``notes`` is read once the points are exhausted, so a generator may
    append findings to it as it goes.
    """
    checked = 0
    counterexample = None
    for point in points:
        checked += 1
        if point[-2] != point[-1]:
            counterexample = dict(zip(keys, point[:-2]), lhs=point[-2], rhs=point[-1])
            break
    status = "fails" if counterexample is not None else "holds" if checked else "vacuous"
    return IdentityReport(identity_id, params_label, bounds, status, counterexample, tuple(notes), checked)
