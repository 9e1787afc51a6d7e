"""Byte-identity guard for the spin path: ``analyze``, ``spectrum`` and
``sweep`` with real exact parameters at n = 8, 33 and 64.

Each case runs one command through ``cli.main``.  The SHA-256 of standard
output (with the commit-dependent ``version`` field removed) and of standard
error must match ``golden/spin_digests.json``.  Every ``analyze`` and
``spectrum`` case at n >= 8 takes the floating eigenvalue path (its flag
matrix is tridiagonal, not triangular), so the digests also pin the float
spectra.

The digests were recorded before ``analyze`` shared one analysis context per
report.  To record them again, for a change that alters output on purpose,
run ``PYTHONPATH=src python tests/test_spin_golden.py``.
"""

import json
import pathlib
import sys
from fractions import Fraction

import pytest

from util import run_case

GOLDEN = pathlib.Path(__file__).parent / "golden" / "spin_digests.json"

_NAMES = ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon")


def _flags(*values) -> list:
    return [f"--{k}={v}" for k, v in zip(_NAMES, values, strict=True)]


def _es_flags(n, a, q, beta, gamma, delta) -> list:
    """alpha = -n under the parameter constraint keeps degree n invariant."""
    alpha = Fraction(-n)
    epsilon = alpha + Fraction(beta) + 1 - Fraction(gamma) - Fraction(delta)
    return _flags(a, q, alpha, beta, gamma, delta, epsilon)


CASES = {
    "analyze_n8": ["analyze", "--n=8", *_flags(3, "1/2", "-2/3", "5/4", "1/3", "-1/2", "7/5")],
    "analyze_n8_text": [
        "analyze", "--n=8", "--output=text", *_flags("-1/2", 2, 1, "-3/4", "5/3", 0, "1/4"),
    ],
    "analyze_n33": ["analyze", "--n=33", *_flags("5/2", -1, "3/2", "-5/3", "1/4", 2, "-1/3")],
    "analyze_n64": ["analyze", "--n=64", *_flags(-2, "4/3", "-5/2", 1, "-1/4", "3/2", "5/4")],
    "analyze_n65_refused": ["analyze", "--n=65", *_flags(3, 0, 1, 1, 1, 1, 1)],
    "spectrum_n8": ["spectrum", "--n=8", *_es_flags(8, 3, "1/2", "5/4", "1/3", "-1/2")],
    "spectrum_n33": ["spectrum", "--n=33", *_es_flags(33, "-3/2", 2, "-1/4", "2/3", 1)],
    "spectrum_n64": ["spectrum", "--n=64", *_es_flags(64, 4, "-5/3", "3/2", "-1/2", "1/4")],
    "spectrum_n8_overflow": [
        "spectrum", "--n=8", "--N=4", *_es_flags(8, 3, "1/2", "5/4", "1/3", "-1/2"),
    ],
    "sweep_n8": ["sweep", "--n=8", "--grid=a=1,2,-1/3", *_flags(3, 1, "1/2", -2, "3/4", 1, "-5/4")],
    "sweep_n33": ["sweep", "--n=33", "--grid=a=1,-2,5/3;q=0,1/2", *_flags(3, 0, 2, "1/3", -1, "1/2", 0)],
    "sweep_n64": ["sweep", "--n=64", "--grid=a=1,4,-3/4", *_flags(2, "-1/2", "5/4", 0, "1/3", -1, 2)],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_spin_report_bytes_unchanged(name):
    recorded = json.loads(GOLDEN.read_text())
    assert run_case(CASES[name]) == recorded[name]


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    digests = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"recorded {len(digests)} digests in {GOLDEN}\n")
