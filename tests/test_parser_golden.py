"""Byte-identity guard for the parser's own output: help texts, usage
errors and exit codes.

Each case runs a command line through ``cli.main``: ``--help`` at the top
level and for every command word (``ssf`` included), and lines that the
direct ``--flag=value`` reader leaves to argparse (a missing required
flag, a bad exact literal, a bad choice, an abbreviation, an ambiguous
abbreviation, a ``--flag=--`` value and a flag before the command word).
The exit code and the SHA-256 of standard output (with the ``version``
field removed) and of standard error must match
``golden/parser_digests.json``.

The texts are argparse's, so they are recorded for one Python minor
version at a fixed width of 80 columns; on another minor version the cases
are skipped.  To record the digests again, for a change that alters the
command line on purpose, run ``PYTHONPATH=src python tests/test_parser_golden.py``.
"""

import json
import os
import pathlib
import sys
from unittest import mock

import pytest

from util import run_case

GOLDEN = pathlib.Path(__file__).parent / "golden" / "parser_digests.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

PARAMS = ["--a=2", "--q=1", "--alpha=-1", "--beta=0", "--gamma=1/3", "--delta=1/2",
          "--epsilon=-5/6"]
ANALYZE = ["analyze", *PARAMS, "--n=1"]

CASES = {
    "help": ["--help"],
    **{f"help_{word}": [word, "--help"]
       for word in ("analyze", "expand", "spectrum", "distsol", "green", "ssf", "sweep")},
    "missing_required": ["analyze", *PARAMS[1:], "--n=1"],
    "bad_exact_literal": ["analyze", "--a=x", *PARAMS[1:], "--n=1"],
    "bad_choice": [*ANALYZE, "--output=xml"],
    "abbreviation": ["analyze", *PARAMS[:2], "--alph=-1", *PARAMS[3:], "--n=1"],
    "ambiguous_abbreviation": ["green", *PARAMS, "--s=1"],
    "out_is_double_dash": [*ANALYZE, "--out=--"],
    "flag_before_command": [PARAMS[0], "analyze", *PARAMS[1:], "--n=1"],
}


def _run(argv) -> dict:
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return run_case(argv)


@pytest.mark.parametrize("name", sorted(CASES))
def test_parser_bytes_unchanged(name):
    recorded = json.loads(GOLDEN.read_text())
    if recorded["python"] != PYTHON:
        pytest.skip(f"argparse's texts are recorded for Python {recorded['python']}")
    assert _run(CASES[name]) == recorded["cases"][name]


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())["cases"]) == sorted(CASES)


if __name__ == "__main__":
    digests = {name: _run(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps({"python": PYTHON, "cases": digests}, indent=2) + "\n")
