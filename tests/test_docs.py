"""The examples in README.md and in the package docstring run as written."""

import doctest
from pathlib import Path

import tnomial

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_and_package_examples():
    for results in (doctest.testfile(str(README), module_relative=False), doctest.testmod(tnomial)):
        assert results.attempted and not results.failed, results
