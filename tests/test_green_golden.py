"""Byte-identity guard for ``green`` and its alias ``ssf`` with real exact
parameters.

Each case runs one command through ``cli.main``.  The SHA-256 of standard
output (with the commit-dependent ``version`` field removed) and of standard
error must match ``golden/green_digests.json``.  The cases cover
``omega(0)`` at ``rho = 1`` with ``sigma + tau`` even and odd and at
``rho > 1`` (where it is 0), the bound override, a dual point, the step at
``lambda`` below, at and above 0, text output and both command words, and
the refusals of an exponent that is not a positive integer, of an empty
bound and of ``E = 0``.

The report cases were recorded before ``green_kernel`` checked the weight
through ``weight_args``; the three exponent refusals were recorded after,
since that change gave them the wording of a ``distsol`` weight block.  To
record them again, for a change that alters output on purpose, run
``PYTHONPATH=src python tests/test_green_golden.py``.
"""

import json
import pathlib
import sys

import pytest

from util import run_case

GOLDEN = pathlib.Path(__file__).parent / "golden" / "green_digests.json"


def _green(word, a, rho, sigma, tau, *extra) -> list:
    return [word, f"--a={a}", "--q=1/2", "--alpha=-1", "--beta=2/3", "--gamma=1",
            "--delta=-1/4", "--epsilon=3", "--n=2", f"--rho={rho}", f"--sigma={sigma}",
            f"--tau={tau}", *extra]


CASES = {
    "green_rho1_sum_even": _green("green", "3/2", 1, 3, 1, "--E=-2/3"),
    "green_rho1_sum_odd": _green("green", -2, 1, 4, 3, "--E=5"),
    "ssf_rho1_sum_odd": _green("ssf", "-1/3", 1, 6, 5),
    "green_rho_above_one": _green("green", 4, 2, 5, 2, "--E=7/2"),
    "green_p_override": _green("green", "5/2", 3, 3, 2, "--p-override=4"),
    "ssf_p_override_below_default": _green("ssf", 3, 1, 7, 2, "--p-override=2"),
    "green_s_eval": _green("green", "-3/4", 1, 5, 3, "--s-eval=-5/3", "--E=2"),
    "ssf_lambda_minus_one": _green("ssf", 2, 1, 4, 2, "--lambda=-1"),
    "ssf_lambda_zero": _green("ssf", 2, 1, 4, 2, "--lambda=0"),
    "ssf_lambda_two": _green("ssf", 2, 1, 4, 2, "--lambda=2", "--s-eval=1/2"),
    "green_text": _green("green", "3/2", 1, 5, 4, "--output=text", "--E=-1"),
    "ssf_text": _green("ssf", -5, 2, 4, 1, "--output=text", "--lambda=-1"),
    "green_empty_bound_refused": _green("green", 3, 2, 2, 2),
    "ssf_zero_eigenvalue_refused": _green("ssf", 3, 1, 3, 2, "--E=0"),
    "green_rho_half_refused": _green("green", 3, "1/2", 3, 2),
    "ssf_rho_zero_refused": _green("ssf", 3, 0, 3, 2),
    "green_sigma_complex_refused": _green("green", 3, 1, "2+i", 2),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_green_report_bytes_unchanged(name):
    recorded = json.loads(GOLDEN.read_text())
    assert run_case(CASES[name]) == recorded[name]


def test_every_case_is_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    digests = {name: run_case(argv) for name, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(digests, indent=2) + "\n")
    sys.stdout.write(f"recorded {len(digests)} digests in {GOLDEN}\n")
