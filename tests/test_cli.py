"""Command line behavior: output formats, routing and exit codes."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tnomial import cli, coefficients, suites
from tnomial.coefficients import coeff_factorial, coeff_recurrence, triangle_rows
from tnomial.report import IdentityReport
from tnomial.sequences import SeqParams
from tnomial.suites import IDENTITY_OPTIONS, IDENTITY_SUITES


def run_cli(*argv, capsys=None):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


class TestCoeff:
    def test_plain_value(self, capsys):
        rc, out, _ = run_cli("coeff", "--p", "2", "--q", "3", "--n", "4", "--k", "2", capsys=capsys)
        assert rc == 0
        assert out == "247\n"

    def test_every_route(self, capsys):
        for route in ("recurrence", "factorial", "product", "subset", "multiset", "partial-fractions"):
            rc, out, _ = run_cli(
                "coeff", "--p", "2", "--q", "3", "--n", "4", "--k", "2", "--route", route,
                capsys=capsys,
            )
            assert rc == 0
            assert out == "247\n"

    def test_inverse_route(self, capsys):
        rc, out, _ = run_cli(
            "coeff", "--p", "2", "--q", "3", "--n", "4", "--k", "2", "--route", "inverse",
            capsys=capsys,
        )
        assert rc == 0
        assert out == "988\n"

    def test_rational_output(self, capsys):
        rc, out, _ = run_cli(
            "coeff", "--p", "2", "--q", "3", "--n", "-1", "--k", "1",
            "--route", "partial-fractions", capsys=capsys,
        )
        assert rc == 0
        assert out == "-1/6\n"

    def test_symbolic(self, capsys):
        rc, out, _ = run_cli("coeff", "--n", "4", "--k", "2", "--symbolic", capsys=capsys)
        assert rc == 0
        assert out == "p^4 + p^3*q + 2*p^2*q^2 + p*q^3 + q^4\n"

    def test_symbolic_csv(self, capsys):
        rc, out, _ = run_cli(
            "coeff", "--n", "3", "--k", "1", "--symbolic", "--format", "csv", capsys=capsys
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["3", "1", "", "", "p^2 + p*q + q^2"]

    def test_json_round_trip(self, capsys):
        rc, out, _ = run_cli(
            "coeff", "--p", "2", "--q", "3", "--n", "4", "--k", "2", "--format", "json",
            capsys=capsys,
        )
        assert rc == 0
        parsed = json.loads(out)
        assert parsed["value"] == "247"
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out

    def test_missing_params_is_usage_error(self, capsys):
        rc, _, err = run_cli("coeff", "--n", "4", "--k", "2", capsys=capsys)
        assert rc == 2
        assert "error" in err

    def test_symbolic_with_route_rejected(self, capsys):
        rc, _, err = run_cli(
            "coeff", "--n", "4", "--k", "2", "--symbolic", "--route", "product", capsys=capsys
        )
        assert rc == 2
        assert "error" in err

    @pytest.mark.parametrize("pair", [("--p", "5", "--q", "7"), ("--p", "5"), ("--q", "7")])
    def test_symbolic_with_pair_rejected(self, pair, capsys):
        rc, out, err = run_cli("coeff", "--symbolic", "--n", "4", "--k", "2", *pair, capsys=capsys)
        assert (rc, out) == (2, "")
        assert err == "error: --p and --q do not apply to --symbolic\n"

    def test_symbolic_with_scale_rejected(self, capsys):
        rc, out, err = run_cli("coeff", "--symbolic", "--n", "4", "--k", "2", "--scale", "5", capsys=capsys)
        assert (rc, out, err) == (2, "", "error: --scale does not apply to --symbolic\n")
        rc, out, _ = run_cli("coeff", "--symbolic", "--n", "4", "--k", "2", "--scale", "1", capsys=capsys)
        assert (rc, out) == (0, "p^4 + p^3*q + 2*p^2*q^2 + p*q^3 + q^4\n")

    def test_degenerate_route_is_usage_error(self, capsys):
        rc, _, err = run_cli(
            "coeff", "--p", "2", "--q", "2", "--n", "4", "--k", "2",
            "--route", "partial-fractions", capsys=capsys,
        )
        assert rc == 2
        assert "partial fractions" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_value_past_int_str_limit(self, fmt, capsys):
        rc, out, err = run_cli(
            "coeff", "--p", "2", "--q", "3", "--n", "200", "--k", "100",
            "--route", "factorial", "--format", fmt, capsys=capsys,
        )
        assert (rc, err) == (0, "")
        value = coeff_factorial(SeqParams(2, 3), 200, 100)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = str(value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) > limit
        if fmt == "json":
            assert json.loads(out)["value"] == expected
        elif fmt == "csv":
            assert list(csv.reader(io.StringIO(out)))[1][4] == expected
        else:
            assert out == expected + "\n"

    def test_zero_scale_rejected(self, capsys):
        rc, _, err = run_cli(
            "coeff", "--p", "2", "--q", "3", "--scale", "0", "--n", "4", "--k", "2", capsys=capsys
        )
        assert rc == 2
        assert "scale" in err


class TestTable:
    def test_pascal_plain(self, capsys):
        rc, out, _ = run_cli("table", "--p", "1", "--q", "1", "--max", "4", capsys=capsys)
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[4].split() == ["n=4", "1", "4", "6", "4", "1"]

    def test_csv_layout(self, capsys):
        rc, out, _ = run_cli(
            "table", "--p", "2", "--q", "3", "--max", "2", "--format", "csv", capsys=capsys
        )
        assert rc == 0
        assert "\r\n" in out
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "k", "p", "q", "value"]
        assert rows[1:] == [
            ["0", "0", "2", "3", "1"],
            ["1", "0", "2", "3", "1"],
            ["1", "1", "2", "3", "1"],
            ["2", "0", "2", "3", "1"],
            ["2", "1", "2", "3", "5"],
            ["2", "2", "2", "3", "1"],
        ]

    def test_json_rows(self, capsys):
        rc, out, _ = run_cli(
            "table", "--p", "2", "--q", "3", "--max", "3", "--format", "json", capsys=capsys
        )
        assert rc == 0
        parsed = json.loads(out)
        assert parsed["rows"][3] == ["1", "19", "19", "1"]

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_rows_past_cache_limit_match_entries(self, fmt, capsys, monkeypatch):
        params = SeqParams(-3, 2)
        coefficients._row.cache_clear()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        rc, out, _ = run_cli(
            "table", "--p", "-3", "--q", "2", "--max", "9", "--format", fmt, capsys=capsys
        )
        expected = [
            [coeff_recurrence(params, n, k) for k in range(n + 1)] for n in range(10)
        ]
        assert rc == 0
        if fmt == "json":
            rows = json.loads(out)["rows"]
        elif fmt == "csv":
            rows = [[] for _ in range(10)]
            for n, _, _, _, value in list(csv.reader(io.StringIO(out)))[1:]:
                rows[int(n)].append(value)
        else:
            rows = [line.split()[1:] for line in out.splitlines()]
        assert [[int(value) for value in row] for row in rows] == expected

    @pytest.mark.parametrize("n_max", (0, 1, 7))
    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_streamed_bytes_match_whole_document(self, fmt, n_max, capsys, monkeypatch):
        coefficients._row.cache_clear()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        rc, out, _ = run_cli(
            "table", "--p", "-3", "--q", "2", "--scale", "2", "--max", str(n_max), "--format", fmt,
            capsys=capsys,
        )
        rows = list(triangle_rows(SeqParams(-3, 2), n_max))
        assert rc == 0
        if fmt == "json":
            payload = {"p": "-3", "q": "2", "rows": [[str(value) for value in row] for row in rows], "scale": "2"}
            assert out == cli._dump_json(payload) + "\n"
        else:
            expected = io.StringIO()
            writer = csv.writer(expected)
            writer.writerow(cli.TABLE_COLUMNS)
            writer.writerows((n, k, -3, 2, str(value)) for n, row in enumerate(rows) for k, value in enumerate(row))
            assert out == expected.getvalue()

    def test_builds_each_row_once(self, capsys, monkeypatch):
        built = []
        next_row = coefficients._next_row

        def counting_next_row(prev, step):
            built.append(len(prev))
            return next_row(prev, step)

        monkeypatch.setattr(coefficients, "_next_row", counting_next_row)
        coefficients._row.cache_clear()
        monkeypatch.setattr(coefficients, "_CACHE_LIMIT", 4)
        rc, _, _ = run_cli("table", "--p", "5", "--q", "-7", "--max", "20", capsys=capsys)
        assert rc == 0
        assert built == list(range(1, 21))

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_cells_not_shared_with_their_mirror(self, fmt, capsys, monkeypatch):
        big = 10**30 + 7
        twin = int(str(big))  # equal to big, another object
        shared = -(10**25)
        rows = [[1], [1, 1], [big, 5, twin], [1, 10**20, -3, 10**25], [2, shared, 9, shared, 2]]
        assert twin is not big
        monkeypatch.setattr(cli, "triangle_rows", lambda params, n_max: iter(rows))
        rc, out, _ = run_cli("table", "--p", "2", "--q", "3", "--max", "4", "--format", fmt, capsys=capsys)
        assert rc == 0
        expected = [[str(value) for value in row] for row in rows]
        if fmt == "json":
            assert json.loads(out)["rows"] == expected
        elif fmt == "csv":
            cells = [(int(n), int(k), value) for n, k, _, _, value in list(csv.reader(io.StringIO(out)))[1:]]
            assert cells == [(n, k, value) for n, row in enumerate(expected) for k, value in enumerate(row)]
        else:
            width = len(str(big))
            assert out == "".join(
                f"n={n:<2d} " + " ".join(value.rjust(width) for value in row) + "\n"
                for n, row in enumerate(expected)
            )

    def test_plain_width_from_most_negative_cell(self, capsys):
        # at (-3, 1) the widest cell, -15860, is the smallest value, not the largest
        params = SeqParams(-3, 1)
        rc, out, _ = run_cli("table", "--p", "-3", "--q", "1", "--max", "6", capsys=capsys)
        assert rc == 0
        rows = [[coeff_recurrence(params, n, k) for k in range(n + 1)] for n in range(7)]
        width = max(len(str(value)) for row in rows for value in row)
        assert width == len("-15860")
        assert out == "".join(
            f"n={n:<2d} " + " ".join(str(value).rjust(width) for value in row) + "\n"
            for n, row in enumerate(rows)
        )

    def test_negative_max_rejected(self, capsys):
        rc, _, err = run_cli("table", "--p", "1", "--q", "1", "--max", "-1", capsys=capsys)
        assert rc == 2
        assert "error" in err


class TestVerify:
    def test_single_suite(self, capsys):
        rc, out, _ = run_cli("verify", "--identity", "binomial", "--max", "4", capsys=capsys)
        assert rc == 0
        assert "HOLDS" in out

    def test_restricted_grid(self, capsys):
        rc, out, _ = run_cli(
            "verify", "--identity", "routes", "--p", "2", "--q", "3", "--max", "6",
            capsys=capsys,
        )
        assert rc == 0
        assert "route-agreement" in out

    def test_json_round_trip(self, capsys):
        rc, out, _ = run_cli(
            "verify", "--identity", "vandermonde", "--format", "json", capsys=capsys
        )
        assert rc == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out
        assert all(report["status"] == "holds" for report in parsed)

    def test_csv_format(self, capsys):
        rc, out, _ = run_cli(
            "verify", "--identity", "equal1", "--format", "csv", capsys=capsys
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "identity", "params", "n_max", "k_max", "status", "counterexample", "notes", "checked"
        ]
        assert rows[1][4] == "holds"
        assert int(rows[1][7]) > 0

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = IdentityReport("demo", "grid", (1, 1), "fails", {"n": 0, "lhs": 1, "rhs": 2}, checked=1)
        monkeypatch.setattr(cli, "run_verify", lambda *a, **k: [failing])
        rc, out, _ = run_cli("verify", "--identity", "routes", capsys=capsys)
        assert rc == 1
        assert "FAILS" in out
        assert "counterexample" in out

    def test_sample_option(self, capsys):
        rc, out, _ = run_cli(
            "verify", "--identity", "orthogonality", "--sample", "4", "--seed", "9",
            "--max", "4", capsys=capsys,
        )
        assert rc == 0
        assert "HOLDS" in out

    def test_alpha_requires_fibonomial(self, capsys):
        rc, _, err = run_cli("verify", "--identity", "routes", "--alpha", "2", capsys=capsys)
        assert rc == 2
        assert "alpha" in err

    def test_alpha_fibonomial(self, capsys):
        rc, out, _ = run_cli(
            "verify", "--identity", "fibonomial", "--alpha", "3", "--max", "7", capsys=capsys
        )
        assert rc == 0
        assert "HOLDS" in out

    def test_order_requires_gf(self, capsys):
        rc, out, err = run_cli(
            "verify", "--identity", "routes", "--p", "2", "--q", "3", "--order", "3", capsys=capsys
        )
        assert rc == 2
        assert "--order" in err
        assert out == ""

    def test_order_with_gf(self, capsys):
        rc, out, _ = run_cli(
            "verify", "--identity", "gf", "--p", "2", "--q", "3", "--order", "3", capsys=capsys
        )
        assert rc == 0
        assert "k_max=3," in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("--identity", "binomial", "--p", "2", "--q", "3"),
            ("--identity", "specializations", "--sample", "3"),
            ("--identity", "fibonomial", "--alpha", "2", "--p", "2", "--q", "3"),
            ("--identity", "fibonomial", "--sample", "3", "--seed", "4"),
        ],
    )
    def test_grid_rejected_by_suites_without_one(self, argv, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("no suite may run")

        monkeypatch.setattr(cli, "run_verify", fail)
        rc, out, err = run_cli("verify", *argv, capsys=capsys)
        assert (rc, out) == (2, "")
        assert err == f"error: --p, --q and --sample do not apply to the {argv[1]} suite\n"

    @pytest.mark.parametrize("identity", [*IDENTITY_SUITES, "all"])
    @pytest.mark.parametrize(
        "option, flags, value",
        [
            ("grid", ("--p", "2", "--q", "3"), [(2, 3)]),
            ("grid", ("--sample", "2"), [(2, 3)]),
            ("order", ("--order", "3"), 3),
            ("alpha", ("--alpha", "2"), 2),
        ],
    )
    def test_option_accepted_exactly_where_the_suite_reads_it(
        self, identity, option, flags, value, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli, "run_verify", lambda *args: calls.append(args) or [])
        monkeypatch.setattr(suites, "sweep", lambda *args: None)  # the suite run_verify calls below compares nothing
        rc, out, err = run_cli("verify", "--identity", identity, *flags, capsys=capsys)
        if option in IDENTITY_OPTIONS[identity]:
            assert (rc, out, err, len(calls)) == (0, "", "", 1)
            suites.run_verify(identity, **{option: value})
            return
        if option == "grid":
            message = f"--p, --q and --sample do not apply to the {identity} suite"
        else:
            readers = [name for name in IDENTITY_SUITES if option in IDENTITY_OPTIONS[name]]
            assert readers and identity not in readers
            message = f"--{option} only applies to the {' and '.join(readers)} suite"
        assert (rc, out, err, calls) == (2, "", f"error: {message}\n", [])
        with pytest.raises(ValueError, match=f"the {identity} suite does not read {option}$"):
            suites.run_verify(identity, **{option: value})

    @pytest.mark.parametrize(
        "argv",
        [("--alpha", "0"), ("--identity", "fibonomial", "--alpha", "-1"), ("--identity", "routes", "--alpha", "0")],
    )
    def test_alpha_below_one_rejected_before_any_suite(self, argv, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verify", lambda *args: pytest.fail("a suite ran"))
        rc, out, err = run_cli("verify", *argv, capsys=capsys)
        assert (rc, out, err) == (2, "", "error: --alpha must be positive\n")

    def test_alpha_with_all_runs_the_fibonomial_suite_at_that_alpha(self, capsys):
        rc, out, err = run_cli("verify", "--alpha", "3", "--max", "1", "--format", "csv", capsys=capsys)
        assert (rc, err) == (0, "")
        rows = [row[:2] for row in csv.reader(io.StringIO(out))]
        assert [row for row in rows if row[0] == "fibonomial"] == [["fibonomial", "alpha=3"]]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--p", "2", "--q", "3", "--sample", "3"), "--sample does not apply with --p and --q"),
            (("--seed", "7"), "--seed only applies with --sample"),
        ],
    )
    def test_sampling_flags_rejected_where_unused(self, argv, message, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("no suite may run")

        monkeypatch.setattr(cli, "run_verify", fail)
        rc, out, err = run_cli("verify", "--identity", "routes", *argv, capsys=capsys)
        assert (rc, out, err) == (2, "", f"error: {message}\n")

    def test_all_accepts_a_pair(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_verify", lambda *args: calls.append(args) or [])
        rc, _, err = run_cli("verify", "--p", "2", "--q", "3", capsys=capsys)
        assert (rc, err, calls) == (0, "", [("all", [(2, 3)], None, None, None)])

    def test_half_specified_grid_rejected(self, capsys):
        rc, _, err = run_cli("verify", "--identity", "routes", "--p", "2", capsys=capsys)
        assert rc == 2
        assert "together" in err

    def test_explicit_zero_bound_honoured(self, capsys):
        rc, out, _ = run_cli(
            "verify", "--identity", "routes", "--p", "2", "--q", "3", "--max", "0", capsys=capsys
        )
        assert rc == 0
        assert "n_max=0," in out
        assert "HOLDS" in out

    @pytest.mark.parametrize(
        "argv", [("verify", "--max", "-1"), ("verify", "--order", "-1"), ("oracle", "--max", "-1")]
    )
    def test_negative_bounds_rejected(self, argv, capsys):
        rc, out, err = run_cli(*argv, capsys=capsys)
        assert rc == 2
        assert ("--order must be positive" if "--order" in argv else "must be nonnegative") in err
        assert out == ""

    @pytest.mark.parametrize("argv", [("verify", "--order", "0"), ("verify", "--identity", "gf", "--order", "0")])
    def test_order_zero_rejected_before_any_suite(self, argv, capsys, monkeypatch):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "run_verify", no_suite)
        rc, out, err = run_cli(*argv, capsys=capsys)
        assert (rc, out, err) == (2, "", "error: --order must be positive\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--identity", "equal1", "--p", "0", "--q", "0"),
            ("--identity", "binomial", "--max", "0"),
        ],
    )
    def test_nothing_compared_is_vacuous(self, argv, capsys):
        rc, out, _ = run_cli("verify", *argv, capsys=capsys)
        assert rc == 1
        assert "VACUOUS" in out
        assert "checked=0" in out

    def test_unknown_identity_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--identity", "nonsense"])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestOracle:
    def test_all(self, capsys):
        rc, out, _ = run_cli("oracle", "--max", "4", capsys=capsys)
        assert rc == 0
        assert out.count("HOLDS") == 6

    def test_single(self, capsys):
        rc, out, _ = run_cli("oracle", "--which", "dag", capsys=capsys)
        assert rc == 0
        assert "acyclic-oracle" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = IdentityReport("demo", "grid", (1, 1), "fails", {"n": 0, "lhs": 1, "rhs": 2}, checked=1)
        monkeypatch.setattr(cli, "run_oracle", lambda *a, **k: [failing])
        rc, out, _ = run_cli("oracle", capsys=capsys)
        assert rc == 1
        assert "FAILS" in out

    @pytest.mark.parametrize("which, cap", [
        ("selections", 8), ("bipartite", 5), ("dag", 4), ("volume", 8), ("inverse-relation", 8),
    ])
    def test_max_past_the_cap_is_noted(self, capsys, which, cap):
        def outputs(bound):
            return {
                fmt: run_cli("oracle", "--which", which, "--max", str(bound), "--format", fmt, capsys=capsys)
                for fmt in cli.FORMATS
            }

        note = f"n_max capped at {cap} (asked {cap + 1})"
        at_cap, past_cap = outputs(cap), outputs(cap + 1)
        assert all(rc == 0 and err == "" for rc, _, err in (*at_cap.values(), *past_cap.values()))
        reports = json.loads(at_cap["json"][1])
        assert all(report["notes"] == [] and report["n_max"] == str(cap) for report in reports)
        assert json.loads(past_cap["json"][1]) == [{**report, "notes": [note]} for report in reports]
        plain = at_cap["plain"][1].splitlines()
        assert past_cap["plain"][1].splitlines() == [
            line for head in plain for line in (head, f"  note: {note}")
        ]
        rows = list(csv.DictReader(io.StringIO(at_cap["csv"][1])))
        assert list(csv.DictReader(io.StringIO(past_cap["csv"][1]))) == [{**row, "notes": note} for row in rows]

    def test_budget_exceeded_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TNOMIAL_MAX_BUDGET", "1")
        rc, out, err = run_cli("oracle", "--which", "selections", capsys=capsys)
        assert rc == 2
        assert out == ""
        assert err == "error: selection counting would enumerate 2 objects, budget is 1\n"


COEFF_USAGE = """\
usage: tnomial coeff [-h] [--p P] [--q Q] [--scale SCALE] --n N --k K
                     [--route {recurrence,factorial,product,subset,multiset,partial-fractions,inverse}]
                     [--symbolic] [--format {plain,json,csv}]
"""

TOP_USAGE = "usage: tnomial [-h] {coeff,table,verify,oracle} ...\n"

HELP_TEXT = {
    (): TOP_USAGE + """
Exact tileable-sequence coefficients and their identity checks.

positional arguments:
  {coeff,table,verify,oracle}
    coeff               evaluate one coefficient
    table               print triangle rows 0..max
    verify              sweep an identity suite
    oracle              cross-check against brute-force counts

options:
  -h, --help            show this help message and exit
""",
    ("coeff",): COEFF_USAGE + """
options:
  -h, --help            show this help message and exit
  --p P                 first parameter
  --q Q                 second parameter
  --scale SCALE         sequence scale (default 1)
  --n N                 row index
  --k K                 column index
  --route {recurrence,factorial,product,subset,multiset,partial-fractions,inverse}
                        computation route
  --symbolic            print the entry as a polynomial in p and q instead of
                        evaluating
  --format {plain,json,csv}
                        output format
""",
    ("table",): """\
usage: tnomial table [-h] --p P --q Q [--scale SCALE] --max MAX
                     [--format {plain,json,csv}]

options:
  -h, --help            show this help message and exit
  --p P
  --q Q
  --scale SCALE
  --max MAX             largest row index
  --format {plain,json,csv}
                        output format
""",
    ("verify",): """\
usage: tnomial verify [-h]
                      [--identity {routes,gf,binomial,orthogonality,vandermonde,equal1,inversion,fibonomial,specializations,all}]
                      [--p P] [--q Q] [--max MAX] [--order ORDER]
                      [--alpha ALPHA] [--sample SAMPLE] [--seed SEED]
                      [--format {plain,json,csv}]

options:
  -h, --help            show this help message and exit
  --identity {routes,gf,binomial,orthogonality,vandermonde,equal1,inversion,fibonomial,specializations,all}
                        which suite to run (default all)
  --p P                 restrict the sweep to one parameter pair
  --q Q
  --max MAX             override the index bound
  --order ORDER         series truncation order where applicable
  --alpha ALPHA         fibonomial recurrence multiplier
  --sample SAMPLE       randomly subsample the parameter grid
  --seed SEED           sampling seed (default 0)
  --format {plain,json,csv}
                        output format
""",
    ("oracle",): """\
usage: tnomial oracle [-h]
                      [--which {selections,bipartite,dag,volume,inverse-relation,all}]
                      [--max MAX] [--format {plain,json,csv}]

options:
  -h, --help            show this help message and exit
  --which {selections,bipartite,dag,volume,inverse-relation,all}
                        which oracle to run (default all)
  --max MAX             override the index bound
  --format {plain,json,csv}
                        output format
""",
}

COEFF_ARGS = ("coeff", "--p", "2", "--q", "3", "--n", "4", "--k", "2")

ERROR_TEXT = {
    ("coeff", "--p", "2", "--q", "3", "--k", "2"):
        COEFF_USAGE + "tnomial coeff: error: the following arguments are required: --n\n",
    COEFF_ARGS + ("--route", "nonsense"): COEFF_USAGE + (
        "tnomial coeff: error: argument --route: invalid choice: 'nonsense' (choose from 'recurrence', "
        "'factorial', 'product', 'subset', 'multiset', 'partial-fractions', 'inverse')\n"
    ),
    ("coeff", "--p", "x", "--q", "3", "--n", "4", "--k", "2"):
        COEFF_USAGE + "tnomial coeff: error: argument --p: invalid int value: 'x'\n",
    COEFF_ARGS + ("--bogus", "1"): TOP_USAGE + "tnomial: error: unrecognized arguments: --bogus 1\n",
    (): TOP_USAGE + "tnomial: error: the following arguments are required: command\n",
}


class TestArgparseText:
    """Help and error text, which argparse alone writes, at 80 columns."""

    @pytest.mark.parametrize("command", list(HELP_TEXT))
    def test_help(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*command, "-h"])
        assert excinfo.value.code == 0
        assert capsys.readouterr() == (HELP_TEXT[command], "")

    @pytest.mark.parametrize("argv", list(ERROR_TEXT))
    def test_error(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(list(argv))
        assert excinfo.value.code == 2
        assert capsys.readouterr() == ("", ERROR_TEXT[argv])


def _fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)


def test_canonical_call_imports_no_argparse():
    result = _fresh_interpreter(
        "import sys\n"
        "from tnomial import cli\n"
        f"status = cli.main({list(COEFF_ARGS)!r})\n"
        "print(status, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "247\n0 []\n", "")


def test_import_loads_no_dataclasses():
    # Importing dataclasses pulls in inspect, dis, ast, tokenize and copy: 6-10 ms of
    # process time (CPython 3.11, a shared 2-vCPU x86-64 Xeon), against about 50 ms for
    # all of `import tnomial.cli` without bytecode.  Only modules the import itself adds
    # count, so what the interpreter's site files preload does not.
    result = _fresh_interpreter(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tnomial.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_help_still_builds_argparse():
    result = _fresh_interpreter(
        "import sys\n"
        "from tnomial import cli\n"
        "try:\n"
        "    cli.main(['coeff', '--help'])\n"
        "finally:\n"
        "    print('argparse' in sys.modules)\n"
    )
    assert result.returncode == 0
    assert result.stdout.startswith("usage: tnomial coeff [-h]")
    assert result.stdout.endswith("\nTrue\n")


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tnomial.cli", "coeff", "--p", "2", "--q", "3", "--n", "4", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "247\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--identity", "vandermonde", "--format", "json"),
        # about 170 kB, more than a pipe buffer holds, so the write must fail
        ("table", "--p", "2", "--q", "3", "--max", "40"),
    ],
)
def test_closed_pipe_ends_without_traceback(argv):
    proc = subprocess.Popen(
        [sys.executable, "-m", "tnomial.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.read(16)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert b"Traceback" not in err
    assert proc.returncode in (0, 1, 2)
