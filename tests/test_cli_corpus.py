"""Every command line of ``tests/cli_corpus.json`` still writes the same
stdout and stderr, byte for byte, and exits with the same code.
``tests/make_cli_corpus.py`` lists the lines and regenerates the file."""

import json

import pytest

from make_cli_corpus import ARGV, CORPUS, run

ENTRIES = json.loads(CORPUS.read_text())


def test_corpus_holds_every_listed_line():
    # a line added to ARGV without regenerating the file would otherwise never run
    assert [entry["argv"] for entry in ENTRIES] == ARGV


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(entry["argv"]) for entry in ENTRIES])
def test_output_is_unchanged(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(entry["argv"]) == entry
