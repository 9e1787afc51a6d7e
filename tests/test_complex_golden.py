"""Byte-identity guard for complex inputs.

Each case runs one small command through ``cli.main`` with complex exact
literals (``--a=2+i``, ``--E=1+2i``, ``--c0=1/2-i`` ...), which exercise the
general complex arithmetic paths of ``CRat``.  The SHA-256 of standard output
(with the commit-dependent ``version`` field removed) and of standard error
must match ``golden/complex_digests.json``.

The digests were recorded before the real-operand fast paths of ``CRat``
existed.  A change that moves any of them changes report bytes.  To record
them again, for a change that alters output on purpose, run
``PYTHONPATH=src python tests/test_complex_golden.py``.
"""

import json
import pathlib
import sys

import pytest

from util import run_case

GOLDEN = pathlib.Path(__file__).parent / "golden" / "complex_digests.json"

_UNIT = ["--q=0", "--alpha=1", "--beta=1", "--gamma=1", "--delta=1", "--epsilon=1"]

CASES = {
    "distsol_imag_branch": [
        "distsol", "--a=2+i", "--q=1/2", "--alpha=-1", "--beta=0", "--gamma=1/3",
        "--delta=1/2", "--epsilon=-5/6", "--n=1", "--l=1", "--E=1+2i", "--K=12",
        "--c0=1/2-i", "--c1=i",
    ],
    "distsol_both_branches": [
        "distsol", "--a=3-2i", "--q=1", "--alpha=1", "--beta=1/2", "--gamma=1",
        "--delta=1", "--epsilon=1/2+i", "--n=2", "--l=2", "--E=-1/2+3i", "--K=16",
        "--c0=1/2-i",
    ],
    "distsol_text": [
        "distsol", "--a=-1/2i", "--q=i", "--alpha=1", "--beta=1/2", "--gamma=1",
        "--delta=2", "--epsilon=3/2", "--n=3", "--l=3", "--E=2-i", "--K=9",
        "--c0=1", "--c1=1+i", "--output=text",
    ],
    "analyze": [
        "analyze", "--a=2-3i", "--q=1/2+i", "--alpha=1", "--beta=-1/2i", "--gamma=1/3",
        "--delta=1+i", "--epsilon=2/3-1/2i", "--n=3",
    ],
    "spectrum_triangular": [
        "spectrum", "--a=2+i", "--q=1-i", "--alpha=-1", "--beta=0", "--gamma=1/3+i",
        "--delta=1/2", "--epsilon=-5/6-i", "--n=1",
    ],
    "spectrum_float_eigen": [
        "spectrum", "--a=2+i", "--q=1", "--alpha=-2", "--beta=-1/2", "--gamma=1/3",
        "--delta=1/2-i", "--epsilon=-7/3+i", "--n=2",
    ],
    "green_scalar_mode": [
        "green", "--a=2+i", *_UNIT, "--n=1", "--rho=1", "--sigma=3", "--tau=2",
        "--E=1+2i", "--s-eval=1/2-i",
    ],
    "green_rho_above_one": [
        "green", "--a=-1/2+3i", *_UNIT, "--n=2", "--rho=2", "--sigma=4", "--tau=3",
        "--E=-i", "--p-override=3",
    ],
    "green_spin_path_refusal": ["green", "--a=2+i", *_UNIT, "--n=1"],
    "ssf": [
        "ssf", "--a=3-i", *_UNIT, "--n=1", "--rho=1", "--sigma=2", "--tau=2",
        "--E=1+2i", "--lambda=2", "--s-eval=i",
    ],
    "sweep": [
        "sweep", "--a=2", "--q=1/2-i", "--alpha=1", "--beta=1", "--gamma=1+i",
        "--delta=1", "--epsilon=1", "--n=2", "--grid=a=1,2+i,-1/2i;q=0,i",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_complex_input_bytes_unchanged(name):
    recorded = json.loads(GOLDEN.read_text())
    assert run_case(CASES[name]) == recorded[name]


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    digests = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"recorded {len(digests)} digests in {GOLDEN}\n")
