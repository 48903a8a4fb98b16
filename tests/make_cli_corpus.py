"""Regenerate ``tests/cli_corpus.json``: the SHA-256 of the stdout and the
stderr, and the exit code, of each command line in ``ARGV``, run through
``cli.main`` in-process at ``COLUMNS=80``.

    PYTHONPATH=src python tests/make_cli_corpus.py

``tests/test_cli_corpus.py`` reruns every line and compares.  A change that
alters an output regenerates the file and says which lines changed and why.
Help text and argparse errors are pinned by ``TestArgparseText`` instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from tnomial import cli
from tnomial.coefficients import ROUTE_NAMES
from tnomial.suites import IDENTITY_OPTIONS, IDENTITY_SUITES, ORACLE_SUITES

CORPUS = Path(__file__).with_name("cli_corpus.json")

FORMATS = ("plain", "json", "csv")
GRID_SUITES = tuple(name for name in IDENTITY_SUITES if "grid" in IDENTITY_OPTIONS[name])

ARGV = [
    # coeff: every route on two pairs, the window past the row memo, the
    # symbolic triangle inside and past its memo, and undefined routes.
    *(["coeff", "--p", p, "--q", q, "--n", "9", "--k", "4", "--route", route] for p, q in (("2", "3"), ("-3", "2")) for route in ROUTE_NAMES),
    *(["coeff", "--p", "2", "--q", "3", "--n", "12", "--k", "5", "--format", fmt] for fmt in FORMATS),
    ["coeff", "--p", "2", "--q", "3", "--n", "300", "--k", "150"],
    ["coeff", "--p", "-3", "--q", "2", "--n", "300", "--k", "7"],
    ["coeff", "--p", "2", "--q", "3", "--n", "128", "--k", "64"],
    ["coeff", "--p", "2", "--q", "3", "--n", "129", "--k", "0"],
    ["coeff", "--p", "5", "--q", "-7", "--n", "129", "--k", "129", "--format", "json"],
    ["coeff", "--p", "2", "--q", "3", "--n", "40", "--k", "20", "--route", "inverse"],
    ["coeff", "--p", "2", "--q", "3", "--n", "-3", "--k", "2", "--route", "partial-fractions"],
    ["coeff", "--p", "2", "--q", "3", "--n", "3", "--k", "5", "--route", "partial-fractions"],
    ["coeff", "--p", "2", "--q", "3", "--n", "3", "--k", "5", "--route", "subset"],
    ["coeff", "--p", "2", "--q", "3", "--n", "3", "--k", "5", "--route", "multiset"],
    ["coeff", "--p", "2", "--q", "2", "--n", "10", "--k", "4", "--route", "product"],
    ["coeff", "--p", "2", "--q", "3", "--scale", "5", "--n", "10", "--k", "4", "--route", "factorial"],
    ["coeff", "--symbolic", "--n", "45", "--k", "20"],
    ["coeff", "--symbolic", "--n", "130", "--k", "3"],
    ["coeff", "--symbolic", "--n", "128", "--k", "1"],
    ["coeff", "--symbolic", "--n", "0", "--k", "0"],
    ["coeff", "--symbolic", "--n", "3", "--k", "4"],
    ["coeff", "--symbolic", "--n", "6", "--k", "3", "--format", "json"],
    ["coeff", "--symbolic", "--n", "6", "--k", "3", "--format", "csv"],
    ["coeff", "--p", "2", "--q", "2", "--n", "5", "--k", "2", "--route", "partial-fractions"],
    ["coeff", "--p", "2", "--q", "-2", "--n", "5", "--k", "2", "--route", "factorial"],
    ["coeff", "--p", "0", "--q", "3", "--n", "5", "--k", "2", "--route", "subset"],
    ["coeff", "--p", "1", "--q", "1", "--n", "5", "--k", "2", "--route", "product"],
    ["coeff", "--p", "2", "--q", "3", "--n", "4", "--k", "5"],
    ["coeff", "--p", "2", "--q", "3", "--n", "-1", "--k", "0"],
    # table: small pairs, past the 128-row memo in every format, and past the
    # switch to decimal rows (middle entry over 1,000 bits): from row 52 with
    # negative cells in plain, from row 64 with zero cells in json.
    ["table", "--p", "-3", "--q", "2", "--max", "10"],
    ["table", "--p", "0", "--q", "0", "--max", "5", "--format", "json"],
    ["table", "--p", "1", "--q", "1", "--scale", "3", "--max", "0", "--format", "csv"],
    *(["table", "--p", "2", "--q", "3", "--max", "140", "--format", fmt] for fmt in FORMATS),
    ["table", "--p", "-3", "--q", "1", "--max", "60"],
    ["table", "--p", "-2", "--q", "2", "--max", "70", "--format", "json"],
    # verify and oracle: all suites in every format, each grid suite at one
    # pair and on a sample, the suites that take no grid, and capped bounds.
    *(["verify", "--format", fmt] for fmt in FORMATS),
    *(["oracle", "--format", fmt] for fmt in FORMATS),
    *(["verify", "--identity", suite, "--p", "2", "--q", "3"] for suite in GRID_SUITES),
    *(["verify", "--identity", suite, "--sample", "3", "--seed", "5"] for suite in GRID_SUITES),
    ["verify", "--sample", "2"],
    ["verify", "--p", "-3", "--q", "2", "--format", "json"],
    ["verify", "--identity", "binomial"],
    ["verify", "--identity", "binomial", "--max", "4", "--format", "csv"],
    ["verify", "--identity", "fibonomial", "--alpha", "2"],
    ["verify", "--identity", "fibonomial", "--max", "6", "--format", "json"],
    ["verify", "--identity", "specializations", "--format", "csv"],
    ["verify", "--identity", "gf", "--order", "6", "--max", "5"],
    ["verify", "--identity", "routes", "--max", "4"],
    ["verify", "--identity", "inversion", "--max", "12"],
    ["verify", "--identity", "equal1", "--p", "0", "--q", "0"],
    ["verify", "--identity", "routes", "--max", "0"],
    ["verify", "--identity", "gf", "--order", "14", "--p", "-3", "--q", "2", "--format", "csv"],
    ["verify", "--identity", "orthogonality", "--max", "10", "--format", "json"],
    ["verify", "--identity", "binomial", "--max", "12", "--format", "json"],
    ["verify", "--identity", "fibonomial", "--alpha", "3", "--format", "json"],
    *(["oracle", "--which", which] for which in ORACLE_SUITES),
    ["oracle", "--which", "dag", "--max", "9"],
    ["oracle", "--which", "selections", "--max", "9", "--format", "json"],
    ["oracle", "--which", "bipartite", "--max", "3", "--format", "csv"],
    ["oracle", "--max", "2"],
    ["oracle", "--which", "volume", "--max", "3", "--format", "json"],
    # UsageError and its exit 2.
    ["coeff", "--n", "4", "--k", "2"],
    ["coeff", "--symbolic", "--n", "4", "--k", "2", "--route", "factorial"],
    ["coeff", "--symbolic", "--n", "4", "--k", "2", "--p", "2", "--q", "3"],
    ["coeff", "--symbolic", "--n", "4", "--k", "2", "--scale", "5"],
    ["table", "--p", "2", "--q", "3", "--max", "-1"],
    ["verify", "--max", "-1"],
    ["verify", "--order", "0"],
    ["verify", "--p", "2"],
    ["verify", "--identity", "routes", "--seed", "7"],
    ["verify", "--identity", "routes", "--p", "2", "--q", "3", "--sample", "3"],
    ["verify", "--sample", "0"],
    ["verify", "--identity", "binomial", "--p", "2", "--q", "3"],
    ["verify", "--identity", "specializations", "--sample", "2"],
    ["verify", "--identity", "routes", "--order", "3"],
    ["verify", "--identity", "routes", "--alpha", "2"],
    ["oracle", "--max", "-1"],
]


def run(argv: list[str]) -> dict:
    """One corpus entry: ``argv``, the SHA-256 of its stdout and stderr, and
    its exit code.  The caller sets ``COLUMNS=80``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "stdout": _sha256(out), "stderr": _sha256(err), "exit": code}


def _sha256(text: io.StringIO) -> str:
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


def main() -> None:
    os.environ["COLUMNS"] = "80"
    lines = ",\n".join(json.dumps(run(argv)) for argv in ARGV)
    CORPUS.write_text(f"[\n{lines}\n]\n")  # one line per entry, so a diff names the changed lines
    print(f"wrote {len(ARGV)} lines to {CORPUS}")


if __name__ == "__main__":
    main()
