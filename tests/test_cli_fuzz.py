"""Fuzzed command lines: every one ends in exit status 0, 1 or 2, never a
traceback, and the table-driven parse agrees with argparse wherever it
answers."""

from __future__ import annotations

import contextlib
import io
import os
import shlex
from pathlib import Path
from unittest import mock

import pytest
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


OPTIONS = {command: options for command, (_, _, options) in cli._COMMANDS.items()}
FLAGS = sorted({f"--{flag}" for options in OPTIONS.values() for flag in options})
CHOICES = sorted({choice for options in OPTIONS.values() for kwargs in options.values()
                  for choice in kwargs.get("choices", ())})
ODD_TOKENS = ["-h", "--p=2", "--iden", "--"]
ODD_VALUES = [" 3", "1_0", "\u0663", "-\u0663", "9" * 5000, "-" + "9" * 5000, "-", "--x", "+3", "", "-0", "007"]

any_value = st.one_of(
    st.integers(-30, 30).map(str), st.sampled_from(ODD_VALUES), st.sampled_from(CHOICES), st.text(max_size=4)
)


def valid_value(kwargs: dict) -> st.SearchStrategy:
    if kwargs.get("action") == "store_true":
        return st.just([])
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"]).map(lambda choice: [choice])
    return st.integers(-5, 20).map(lambda value: [str(value)])


@st.composite
def command_lines(draw) -> list[str]:
    """A command, mostly with its required flags, some of its own flags with
    valid values, and a few tokens from anywhere or own flags with odd
    values, in any order."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    chosen = [flag for flag, kwargs in options.items() if kwargs.get("required") and draw(st.integers(0, 9))]
    chosen += draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True))
    chunks = [[f"--{flag}", *draw(valid_value(options[flag]))] for flag in chosen]
    odd = st.one_of(
        st.sampled_from(FLAGS + ODD_TOKENS).map(lambda token: [token]),
        any_value.map(lambda token: [token]),
        st.tuples(st.sampled_from(sorted(options)).map("--{}".format), any_value).map(list),
    )
    chunks += draw(st.lists(odd, max_size=2))
    head = draw(st.sampled_from([[command]] * 6 + [[], ["-h"], ["junk"], [command.upper()]]))
    return head + [token for chunk in draw(st.permutations(chunks)) for token in chunk]


def argparse_vars(argv: list[str]) -> dict | None:
    """vars() of what argparse makes of ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@settings(fuzz, max_examples=400)
@given(argv=command_lines())
def test_canonical_parse_agrees_with_argparse(argv):
    fast = cli._parse_canonical(argv)
    if fast is not None:
        assert vars(fast) == argparse_vars(argv), argv


@pytest.mark.parametrize("value", ODD_VALUES)
@pytest.mark.parametrize("head", [["coeff", "--k", "2", "--n"], ["coeff", "--k", "2", "--n", "4", "--route"]])
def test_odd_values_agree_with_argparse(head, value):
    argv = head + [value]
    fast = cli._parse_canonical(argv)
    assert fast is None or vars(fast) == argparse_vars(argv)


def readme_command_lines() -> list[list[str]]:
    readme = Path(__file__).resolve().parents[1] / "README.md"
    prompt = "$ tnomial "
    return [shlex.split(line[len(prompt):], comments=True)
            for line in readme.read_text(encoding="utf-8").splitlines() if line.startswith(prompt)]


FUZZ_SHAPES = (
    [["coeff", "--route", route, "--format", fmt, "--p", "-3", "--q", "4", "--scale", "3", "--n", "-3", "--k", "26"]
     for route in ROUTE_NAMES for fmt in cli.FORMATS]
    + [["table", "--format", fmt, "--p", "4", "--q", "-3", "--max", "-2"] for fmt in cli.FORMATS]
    + [["verify", "--identity", identity, "--format", "csv", "--p", "0", "--q", "-1", "--max", "-1"]
       for identity in IDENTITY_SUITES]
    + [["oracle", "--which", which, "--format", "json", "--max", "6"] for which in ORACLE_SUITES]
)


@pytest.mark.parametrize("argv", readme_command_lines() + FUZZ_SHAPES, ids=" ".join)
def test_common_command_lines_skip_argparse(argv):
    fast = cli._parse_canonical(argv)
    assert fast is not None
    assert vars(fast) == argparse_vars(argv)


def test_readme_has_examples():
    assert len(readme_command_lines()) >= 10
