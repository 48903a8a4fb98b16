"""Command line interface.

Four subcommands: ``coeff`` evaluates a single coefficient by a chosen
route, ``table`` prints triangle rows, ``verify`` sweeps an identity
suite and ``oracle`` cross-checks against the brute-force counters.
Output comes in ``plain``, ``json`` or ``csv`` form; every number in
structured output is rendered as a decimal string so that parsing and
re-serializing is byte-identical.

Exit status: 0 when everything computed or verified cleanly, 1 when a
verify or oracle sweep found a counterexample or compared nothing, or
when the reader of standard output went away, 2 for unusable arguments
(including routes undefined at the requested parameters) and for work
over its budget (``BudgetExceededError``).
"""

from __future__ import annotations

import csv
import json
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable

from .coefficients import ROUTE_NAMES, coeff_route, coeff_symbolic, triangle_rows
from .errors import BudgetExceededError, DivisibilityError
from .report import IdentityReport, decimal_str
from .sequences import SeqParams
from .suites import (
    IDENTITY_OPTIONS,
    IDENTITY_SUITES,
    ORACLE_SUITES,
    pq_grid,
    run_oracle,
    run_verify,
    sample_grid,
)

if TYPE_CHECKING:
    import argparse

FORMATS = ("plain", "json", "csv")

TABLE_COLUMNS = ("n", "k", "p", "q", "value")

REPORT_COLUMNS = ("identity", "params", "n_max", "k_max", "status", "counterexample", "notes", "checked")


class UsageError(Exception):
    """Argument combinations that argparse alone cannot reject."""


def _dump_json(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _write_csv(header: tuple[str, ...], rows: Iterable[tuple], out) -> None:
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)


def _emit(text: str, out) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _params_from(args: SimpleNamespace) -> SeqParams:
    if args.p is None or args.q is None:
        raise UsageError("--p and --q are required here")
    return SeqParams(args.p, args.q, args.scale)


def _cmd_coeff(args: SimpleNamespace, out) -> int:
    if args.symbolic:
        if args.route != "recurrence":
            raise UsageError("--symbolic only makes sense with the default route")
        if args.p is not None or args.q is not None:
            raise UsageError("--p and --q do not apply to --symbolic")
        if args.scale != 1:
            raise UsageError("--scale does not apply to --symbolic")
        value = str(coeff_symbolic(args.n, args.k))
        keys = {"route": "symbolic"}
        row = (args.n, args.k, "", "", value)
    else:
        params = _params_from(args)
        value = decimal_str(coeff_route(params, args.n, args.k, args.route))
        keys = {"p": str(params.p), "q": str(params.q), "route": args.route, "scale": str(params.scale)}
        row = (args.n, args.k, params.p, params.q, value)
    if args.format == "json":
        _emit(_dump_json({"k": str(args.k), "n": str(args.n), "value": value, **keys}), out)
    elif args.format == "csv":
        _write_csv(TABLE_COLUMNS, [row], out)
    else:
        _emit(value, out)
    return 0


def _cell_strings(row: list[int]) -> list[str]:
    """``decimal_str`` of each cell of a triangle row, converting each
    mirrored pair once: cell n - k reuses the string of cell k when both
    are the same object, as ``triangle_rows`` shares them in a symmetric row."""
    n = len(row) - 1
    cells = []
    for k, value in enumerate(row):
        cells.append(cells[n - k] if n - k < k and row[n - k] is value else decimal_str(value))
    return cells


def _write_table_json(params: SeqParams, rows: Iterable[list[int]], out) -> None:
    """Write, one row at a time, the bytes that _emit(_dump_json(payload))
    gives for the payload {"p", "q", "rows", "scale"} of decimal strings."""
    out.write(f'{{\n  "p": {json.dumps(str(params.p))},\n  "q": {json.dumps(str(params.q))},\n  "rows": [')
    separator = "\n"
    for row in rows:
        cells = ",\n      ".join(map(json.dumps, _cell_strings(row)))
        out.write(f"{separator}    [\n      {cells}\n    ]")
        separator = ",\n"
    out.write(f'\n  ],\n  "scale": {json.dumps(str(params.scale))}\n}}\n')


def _cmd_table(args: SimpleNamespace, out) -> int:
    params = _params_from(args)
    _check_bounds(args)
    rows = triangle_rows(params, args.max)
    if args.format == "json":
        _write_table_json(params, rows, out)
    elif args.format == "csv":
        cells = ((n, k, params.p, params.q, v) for n, row in enumerate(rows) for k, v in enumerate(_cell_strings(row)))
        _write_csv(TABLE_COLUMNS, cells, out)
    else:
        rows = list(rows)
        # The widest cell holds the largest or the most negative value.
        largest = max(max(row) for row in rows)
        smallest = min(min(row) for row in rows)
        width = max(len(decimal_str(largest)), len(decimal_str(smallest)))
        for n, row in enumerate(rows):
            cells = " ".join(cell.rjust(width) for cell in _cell_strings(row))
            _emit(f"n={n:<2d} {cells}", out)
    return 0


def _report_lines(report: IdentityReport) -> list[str]:
    head = (
        f"[{report.identity_id}] {report.status.upper()}  "
        f"({report.params}; n_max={report.bounds[0]}, k_max={report.bounds[1]}, "
        f"checked={report.checked})"
    )
    lines = [head]
    if report.first_counterexample is not None:
        pairs = ", ".join(f"{key}={decimal_str(value)}" for key, value in report.first_counterexample.items())
        lines.append(f"  counterexample: {pairs}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    return lines


def _emit_reports(reports: list[IdentityReport], fmt: str, out) -> int:
    if fmt == "json":
        _emit(_dump_json([report.to_dict() for report in reports]), out)
    elif fmt == "csv":
        rows = []
        for report in reports:
            d = report.to_dict()
            d["counterexample"] = "" if d["counterexample"] is None else _dump_json(d["counterexample"])
            d["notes"] = "; ".join(d["notes"])
            rows.append(tuple(d[column] for column in REPORT_COLUMNS))
        _write_csv(REPORT_COLUMNS, rows, out)
    else:
        for report in reports:
            for line in _report_lines(report):
                _emit(line, out)
    return 0 if all(report.holds for report in reports) else 1


def _check_bounds(args: SimpleNamespace) -> None:
    if getattr(args, "max", None) is not None and args.max < 0:
        raise UsageError("--max must be nonnegative")
    if getattr(args, "order", None) is not None and args.order < 1:
        raise UsageError("--order must be positive")
    if getattr(args, "alpha", None) is not None and args.alpha < 1:
        raise UsageError("--alpha must be positive")


def _verify_grid(args: SimpleNamespace) -> list[tuple[int, int]] | None:
    if (args.p is None) != (args.q is None):
        raise UsageError("--p and --q must be given together")
    if args.sample is None:
        if args.seed is not None:
            raise UsageError("--seed only applies with --sample")
        return None if args.p is None else [(args.p, args.q)]
    if args.p is not None:
        raise UsageError("--sample does not apply with --p and --q")
    if args.sample < 1:
        raise UsageError("--sample must be positive")
    return sample_grid(pq_grid(), args.sample, args.seed or 0)


def _cmd_verify(args: SimpleNamespace, out) -> int:
    grid = _verify_grid(args)
    _check_bounds(args)
    reads = IDENTITY_OPTIONS[args.identity]
    if grid is not None and "grid" not in reads:
        raise UsageError(f"--p, --q and --sample do not apply to the {args.identity} suite")
    for option in ("order", "alpha"):
        if getattr(args, option) is not None and option not in reads:
            readers = " and ".join(name for name in IDENTITY_SUITES if option in IDENTITY_OPTIONS[name])
            raise UsageError(f"--{option} only applies to the {readers} suite")
    reports = run_verify(args.identity, grid, args.max, args.order, args.alpha)
    return _emit_reports(reports, args.format, out)


def _cmd_oracle(args: SimpleNamespace, out) -> int:
    _check_bounds(args)
    reports = run_oracle(args.which, args.max)
    return _emit_reports(reports, args.format, out)


_FORMAT = {"choices": FORMATS, "default": "plain", "help": "output format"}

_COMMANDS = {
    "coeff": ("evaluate one coefficient", _cmd_coeff, {
        "p": {"type": int, "help": "first parameter"},
        "q": {"type": int, "help": "second parameter"},
        "scale": {"type": int, "default": 1, "help": "sequence scale (default 1)"},
        "n": {"type": int, "required": True, "help": "row index"},
        "k": {"type": int, "required": True, "help": "column index"},
        "route": {"choices": ROUTE_NAMES, "default": "recurrence", "help": "computation route"},
        "symbolic": {"action": "store_true", "default": False,
                     "help": "print the entry as a polynomial in p and q instead of evaluating"},
        "format": _FORMAT,
    }),
    "table": ("print triangle rows 0..max", _cmd_table, {
        "p": {"type": int, "required": True},
        "q": {"type": int, "required": True},
        "scale": {"type": int, "default": 1},
        "max": {"type": int, "required": True, "help": "largest row index"},
        "format": _FORMAT,
    }),
    "verify": ("sweep an identity suite", _cmd_verify, {
        "identity": {"choices": IDENTITY_SUITES + ("all",), "default": "all",
                     "help": "which suite to run (default all)"},
        "p": {"type": int, "help": "restrict the sweep to one parameter pair"},
        "q": {"type": int},
        "max": {"type": int, "help": "override the index bound"},
        "order": {"type": int, "help": "series truncation order where applicable"},
        "alpha": {"type": int, "help": "fibonomial recurrence multiplier"},
        "sample": {"type": int, "help": "randomly subsample the parameter grid"},
        "seed": {"type": int, "help": "sampling seed (default 0)"},
        "format": _FORMAT,
    }),
    "oracle": ("cross-check against brute-force counts", _cmd_oracle, {
        "which": {"choices": ORACLE_SUITES + ("all",), "default": "all", "help": "which oracle to run (default all)"},
        "max": {"type": int, "help": "override the index bound"},
        "format": _FORMAT,
    }),
}
"""Per command: its help line, its handler and, per flag (its name without
``--`` is also its attribute), the keyword arguments of ``add_argument``.
Every flag takes an int, takes one of its choices, or is a store_true switch."""


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="tnomial",
        description="Exact tileable-sequence coefficients and their identity checks.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, options) in _COMMANDS.items():
        command = commands.add_parser(name, help=summary)
        for flag, kwargs in options.items():
            command.add_argument(f"--{flag}", **kwargs)
        command.set_defaults(handler=handler)
    return parser


def _parse_canonical(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)``, read from ``_COMMANDS`` alone, for
    a command followed by whole ``--flag value`` and ``--flag`` tokens of it,
    each at most once, with ASCII ints, exact choices and every required
    flag.  None for any other command line: argparse reads those, and it
    alone writes help and error messages."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, options = _COMMANDS[argv[0]]
    values = {flag: kwargs.get("default") for flag, kwargs in options.items()}
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        flag = token[2:]
        if not token.startswith("--") or flag not in options or flag in seen:
            return None
        seen.add(flag)
        kwargs = options[flag]
        if kwargs.get("action") == "store_true":
            values[flag] = True
            continue
        value = next(tokens, "")
        if "choices" in kwargs:
            if value not in kwargs["choices"]:
                return None
        else:
            digits = value.removeprefix("-")
            if not (digits.isascii() and digits.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than the interpreter converts
                return None
        values[flag] = value
    if any(kwargs.get("required") and flag not in seen for flag, kwargs in options.items()):
        return None
    return SimpleNamespace(command=argv[0], **values, handler=handler)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_canonical(argv)
    if args is None:
        args = build_parser().parse_args(argv, SimpleNamespace())
    try:
        status = args.handler(args, sys.stdout)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # interpreter's final flush of what is still buffered cannot fail too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (UsageError, BudgetExceededError, DivisibilityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
