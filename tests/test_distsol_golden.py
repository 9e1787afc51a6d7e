"""Byte-identity guard for ``distsol`` reports with numerators thousands of
digits long.

Each case runs one command through ``cli.main``.  The SHA-256 of standard
output (with the commit-dependent ``version`` field removed) and of standard
error must match ``golden/distsol_digests.json``.  The cases cover real
parameters at l = 1..4 with K = 64 and K = 300, one l = 2 report near
K = 590 (just below the interpreter's 4300-digit int-to-str limit), complex
``--a``/``--E``/``--c0`` at K = 200, and ``--E=0``, whose imaginary block is
a ``DegenerateLeading`` error row.

The digests were recorded before the forward solve and the residual rows
summed each value over one common denominator.  To record them again, for a
change that alters output on purpose, run
``PYTHONPATH=src python tests/test_distsol_golden.py``.

One op past the digit limit is pinned separately: it must keep exiting 2 with
CPython's message, and ``main`` must leave the interpreter's limit as it
found it.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from heunlie import cli
from util import run_case

GOLDEN = pathlib.Path(__file__).parent / "golden" / "distsol_digests.json"

_NAMES = ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon")


def _flags(*values) -> list:
    return [f"--{k}={v}" for k, v in zip(_NAMES, values, strict=True)]


_REAL = {
    1: ["--n=3", "--E=-3/2", *_flags(3, "1/2", "-2/3", "5/4", "1/3", "-1/2", "7/5")],
    2: ["--n=5", "--E=2/3", *_flags("-5/2", 1, "3/2", "-5/3", "1/4", 2, "-1/3")],
    # from l = 3 on, c_1 = 0 would make every solved entry 0
    3: ["--n=2", "--E=5", "--c1=2/3", *_flags("4/3", "-1/2", -2, "1/2", "3/4", -1, "5/4")],
    4: ["--n=7", "--E=-1/4", "--c1=-3", *_flags(-2, "4/3", "-5/2", 1, "-1/4", "3/2", "5/4")],
}

CASES = {
    **{
        f"real_l{l}_K{K}": ["distsol", f"--l={l}", f"--K={K}", *rest]
        for l, rest in _REAL.items()
        for K in (64, 300)
    },
    # its longest integer has 3864 digits
    "real_l2_K590": [
        "distsol", "--n=2", "--l=2", "--K=590", "--E=1/2", *_flags(-1, 0, 1, 1, 2, 1, 0),
    ],
    "complex_l2_K200": [
        "distsol", "--n=4", "--l=2", "--K=200", "--E=3/2-1/2i", "--c0=1+i", "--c1=-1/3",
        *_flags("2+i", "1/2", "-2/3", "5/4", "1/3", "-1/2", "7/5"),
    ],
    "complex_l1_K200": [
        "distsol", "--n=2", "--l=1", "--K=200", "--E=-1+2i", "--c0=1/2-i",
        *_flags("-3/2i", 1, "3/2", "-5/3", "1/4", 2, "-1/3"),
    ],
    "E_zero_l2_K64": ["distsol", "--n=5", "--l=2", "--K=64", "--E=0", *_REAL[2][2:]],
}

# past the limit: the real sequence reaches an integer of more than 4300 digits
REFUSED = ["distsol", "--n=8", "--l=2", "--K=850", "--E=3/2",
           *_flags(3, "1/2", "-2/3", "5/4", "1/3", "-1/2", "7/5")]
DIGIT_LIMIT_MESSAGE = "Exceeds the limit (4300 digits) for integer string conversion"


@pytest.mark.parametrize("name", sorted(CASES))
def test_distsol_report_bytes_unchanged(name):
    recorded = json.loads(GOLDEN.read_text())
    limit = sys.get_int_max_str_digits()
    assert run_case(CASES[name]) == recorded[name]
    assert sys.get_int_max_str_digits() == limit


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_past_the_digit_limit_exits_2_and_keeps_the_limit():
    limit = sys.get_int_max_str_digits()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(REFUSED)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("heunlie: invalid parameters: ")
    assert DIGIT_LIMIT_MESSAGE in err.getvalue()
    assert sys.get_int_max_str_digits() == limit


if __name__ == "__main__":
    digests = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"recorded {len(digests)} digests in {GOLDEN}\n")
