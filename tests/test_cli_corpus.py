"""Every command line of ``tests/cli_corpus.json`` still writes the same
stdout and stderr, byte for byte, and exits with the same code.
``tests/make_cli_corpus.py`` lists the lines and regenerates the file."""

import json

import pytest

from make_cli_corpus import CORPUS, run

ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(entry["argv"]) for entry in ENTRIES])
def test_output_is_unchanged(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(entry["argv"]) == entry
