"""Public refusals with a message of their own: each raises its documented
type with its exact text, and the command line maps a bad generator
letter to exit 2."""

import pytest

from heunlie import cli
from heunlie.algpoly import CRat, DiffOp, OracleMismatch, Polynomial, Surd, quadratic_roots
from heunlie.heunop import DiscrepancyReport, ExpandedCoeffs, extract_expanded_coeffs

LEAD = ExpandedCoeffs.lead(CRat(2))


def _report_without(name):
    report = DiscrepancyReport()
    report.add("rho", 1, 2)
    return report.residual(name)


REFUSALS = {
    "extract_expanded_coeffs first order": (
        lambda: extract_expanded_coeffs(DiffOp([Polynomial([1]), Polynomial([1])]), 2),
        OracleMismatch, "operator is not in the expanded normal shape"),
    "extract_expanded_coeffs wrong lead": (
        lambda: extract_expanded_coeffs(DiffOp([Polynomial([1]), Polynomial([1]), LEAD]), 3),
        OracleMismatch, "operator is not in the expanded normal shape"),
    "extract_expanded_coeffs first-order degree": (
        lambda: extract_expanded_coeffs(
            DiffOp([Polynomial([1]), Polynomial([0, 0, 0, 1]), LEAD]), 2),
        OracleMismatch, "lower-order coefficients exceed the normal shape degrees"),
    "extract_expanded_coeffs zero-order degree": (
        lambda: extract_expanded_coeffs(
            DiffOp([Polynomial([0, 0, 1]), Polynomial([1]), LEAD]), 2),
        OracleMismatch, "lower-order coefficients exceed the normal shape degrees"),
    "DiscrepancyReport.residual unknown name": (
        lambda: _report_without("sigma"), KeyError, "'sigma'"),
    "quadratic_roots zero leading": (
        lambda: quadratic_roots(0, 1, 2),
        ZeroDivisionError, "leading coefficient of the quadratic is zero"),
    "Surd.exact_value live radical": (
        lambda: Surd(1, 1, 2).exact_value(),
        ValueError, "1 + (1)*sqrt(2) retains an irrational radical part"),
    "Surd arithmetic across radicands": (
        lambda: Surd(0, 1, 2) + Surd(0, 1, 3), ValueError, "incompatible radicands 2 and 3"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_type_and_message(name):
    fn, exc, message = REFUSALS[name]
    with pytest.raises(exc) as info:
        fn()
    assert type(info.value) is exc and str(info.value) == message


def test_unknown_generator_letter_exits_2(capsys):
    assert cli.main(["expand", "--expr=1/2 * x", "--j=1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "heunlie: invalid parameters: unknown generator letter in word 'x'\n"
