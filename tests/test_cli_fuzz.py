"""Fuzzed command lines: every one ends in exit status 0, 1 or 2, never a traceback."""

from __future__ import annotations

import contextlib
import io
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tnomial import cli
from tnomial.coefficients import ROUTE_NAMES
from tnomial.suites import IDENTITY_SUITES, ORACLE_SUITES

fuzz = settings(deadline=None, max_examples=150, database=None)

params = st.integers(-3, 4)
formats = st.sampled_from(cli.FORMATS)


def run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            status = exc.code
    assert status in (0, 1, 2), (argv, status)
    assert "Traceback" not in err.getvalue(), argv


@fuzz
@given(
    route=st.sampled_from(ROUTE_NAMES),
    fmt=formats,
    p=params,
    q=params,
    scale=st.integers(1, 3),
    n=st.integers(-3, 24),
    k=st.integers(-2, 26),
)
def test_coeff(route, fmt, p, q, scale, n, k):
    run(["coeff", "--route", route, "--format", fmt, "--p", str(p), "--q", str(q),
         "--scale", str(scale), "--n", str(n), "--k", str(k)])


@fuzz
@given(fmt=formats, p=params, q=params, n_max=st.integers(-2, 24))
def test_table(fmt, p, q, n_max):
    run(["table", "--format", fmt, "--p", str(p), "--q", str(q), "--max", str(n_max)])


@settings(fuzz, max_examples=80)
@given(identity=st.sampled_from(IDENTITY_SUITES), fmt=formats, p=params, q=params, n_max=st.integers(-1, 6))
def test_verify(identity, fmt, p, q, n_max):
    run(["verify", "--identity", identity, "--format", fmt, "--p", str(p), "--q", str(q), "--max", str(n_max)])


@settings(fuzz, max_examples=40)
@given(which=st.sampled_from(ORACLE_SUITES), fmt=formats, n_max=st.integers(-1, 6), budget=st.integers(1, 10**7))
def test_oracle(which, fmt, n_max, budget):
    with mock.patch.dict(os.environ, {"TNOMIAL_MAX_BUDGET": str(budget)}):
        run(["oracle", "--which", which, "--format", fmt, "--max", str(n_max)])
