"""Byte-identity guard for ``expand``, the one command no other golden
covers.

Each case runs ``heunlie expand`` through ``cli.main`` on a grid of
expressions (zero, negative, complex and constant-only coefficients, and
the empty expression) at spins 0, 1/2, 1, 3/2 and -1, in both output modes.
The SHA-256 of standard output (with the ``version`` field removed) and of
standard error must match ``golden/expand_digests.json``.  The report
prints the expression back, so the digests pin the coefficient text of
``UEAExpr`` as well as the expanded operator's.

To record the digests again, for a change that alters output on purpose,
run ``PYTHONPATH=src python tests/test_expand_golden.py``.
"""

import json
import pathlib
import sys

import pytest

from util import run_case

GOLDEN = pathlib.Path(__file__).parent / "golden" / "expand_digests.json"

EXPRESSIONS = {
    "heun_pair": "1/2 * +0 + 1/2 * 0+",
    "zero_coeffs": "1 * 0 + (-1) * 0 + 0 * +- + 0",
    "negative": "-3/4 * +- + (-1) * 00 + 2 * - + (-5/2) + (-1/3) * +",
    "complex": "(-i) * - + i * ++ + (2-i) * +- + 1/2+1/3i * 0 + (-i)",
    "constant_only": "5/3 + (-2)",
    "constant_complex": "(-1/2+i)",
    "empty": "",
}
SPINS = {"0": "0", "half": "1/2", "1": "1", "3half": "3/2", "neg1": "-1"}
OUTPUTS = ("json", "text")

CASES = {
    f"{expr}_j{spin}_{output}": [
        "expand", f"--expr={text}", f"--j={j}", f"--output={output}",
    ]
    for expr, text in EXPRESSIONS.items()
    for spin, j in SPINS.items()
    for output in OUTPUTS
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_expand_report_bytes_unchanged(name):
    recorded = json.loads(GOLDEN.read_text())
    assert run_case(CASES[name]) == recorded[name]


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    digests = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"recorded {len(digests)} digests in {GOLDEN}\n")
