"""Command line behavior: output formats, routing and exit codes."""

from __future__ import annotations

import csv
import io
import json
import subprocess
import sys

import pytest

from tnomial import cli
from tnomial.report import make_report


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

    def test_degenerate_route_is_usage_error(self, capsys):
        rc, _, err = run_cli(
            "coeff", "--p", "2", "--q", "2", "--n", "4", "--k", "2",
            "--route", "partial-fractions", capsys=capsys,
        )
        assert rc == 2
        assert "partial fractions" in err

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
        failing = make_report("demo", "grid", (1, 1), {"n": 0, "lhs": 1, "rhs": 2})
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
        assert "nonnegative" in err
        assert out == ""

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
        failing = make_report("demo", "grid", (1, 1), {"n": 0, "lhs": 1, "rhs": 2})
        monkeypatch.setattr(cli, "run_oracle", lambda *a, **k: [failing])
        rc, out, _ = run_cli("oracle", capsys=capsys)
        assert rc == 1
        assert "FAILS" in out


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tnomial.cli", "coeff", "--p", "2", "--q", "3", "--n", "4", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "247\n"
