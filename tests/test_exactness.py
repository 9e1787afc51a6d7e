"""The exactness contract: the recurrence and kernel layers take exact
scalars only, and a report carries floats only under the keys that README
lists (the floating spectrum and the step level ``lambda``)."""

import json
import re
from fractions import Fraction

import pytest

from heunlie import cli
from heunlie.algpoly import (
    CR_ONE,
    CR_ZERO,
    CRat,
    DiffOp,
    HeunParams,
    NonIntegerExponents,
    Polynomial,
    monomial_images,
)
from heunlie.distsol import (
    CoeffSequence,
    RecurrenceSpec,
    closed_form_roots_imag,
    closed_form_roots_real,
    forward_imag,
    forward_real,
    paper_ck,
    recur_imag,
    recur_real,
    residual_check,
    weight_expansion,
)
from heunlie.greenssf import (
    Distribution,
    KernelScalars,
    green_kernel,
    monomial_times_delta,
    symbol_coeffs,
    weight_value_at_zero,
)
from heunlie.heunop import (
    Analysis,
    es_condition,
    matrix_spectrum,
    qes_matrix,
    uea_heun,
)
from heunlie.sl2rep import UEAExpr, make_generators, spin, uea_expand

PARAMS = ["--a=3", "--q=1/2", "--alpha=-2/3", "--beta=5/4", "--gamma=1/3",
          "--delta=-1/2", "--epsilon=7/5"]
GREEN = [*PARAMS, "--n=1", "--rho=1", "--sigma=5", "--tau=3", "--s-eval=1/2-3i",
         "--E=-2/3", "--lambda=-2.5"]

# each command, and whether its report must carry a float at all
REPORTS = {
    "analyze": (["analyze", "--n=8", *PARAMS], True),  # the float eigenvalue path
    "spectrum": (["spectrum", "--n=2", "--a=2", "--q=1", "--alpha=-2", "--beta=-1/2",
                  "--gamma=1/3", "--delta=1/2", "--epsilon=-7/3"], True),
    "distsol": (["distsol", "--n=2", "--l=2", "--K=12", "--E=3/2-1/2i", "--c0=1+i",
                 "--c1=-1/3", *PARAMS], False),
    "green": (["green", *GREEN], True),
    "ssf": (["ssf", *GREEN], True),
    "sweep": (["sweep", "--n=8", "--grid=a=1,2,-1/3", *PARAMS], True),
}


def _leaves(node, keys=()):
    """``(keys, value)`` for every scalar in a JSON tree; ``keys`` are the
    dict keys on the path (list positions are left out)."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaves(val, keys + (key,))
    elif isinstance(node, list):
        for val in node:
            yield from _leaves(val, keys)
    else:
        yield keys, node


def _float_allowed(keys) -> bool:
    return (keys[-1:] == ("spectrum",) or keys[-2:] == ("ssf", "lambda")
            or keys[-3:] == ("config", "flags", "lambda"))


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_floats_only_under_documented_keys(capsys, name):
    argv, has_float = REPORTS[name]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    docs = [json.loads(line) for line in out.splitlines()] if name == "sweep" else [json.loads(out)]
    float_keys = {keys for doc in docs for keys, v in _leaves(doc) if isinstance(v, float)}
    assert [keys for keys in float_keys if not _float_allowed(keys)] == []
    assert bool(float_keys) == has_float


SPEC = RecurrenceSpec(l=1, rho=1, sigma=2, tau=1, ab=2, E=1, a=3)
HEUN = HeunParams(3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(1, 3),
                  Fraction(-1, 2), Fraction(7, 5))
SCALARS = KernelScalars(1, 3, 1, 5, 3)
CUBIC = Polynomial([1, 2, 3, 4])
Z = Polynomial.variable()


def _plain_spec(**scalars):
    """SPEC's scalars, some replaced, through the plain constructor."""
    return RecurrenceSpec(**{**dict(l=1, rho=1, sigma=2, tau=1, ab=2, E=1, a=3), **scalars})


def _plain_scalars(**fields):
    """SCALARS' fields, some replaced, through the plain constructor."""
    return KernelScalars(**{**dict(n=1, a=3, rho=1, sigma=5, tau=3), **fields})

# (entry point, an exact value it accepts); every integer argument below is
# checked the same way at the int 2
ENTRY_POINTS = {
    "green_kernel s_eval": (lambda x: green_kernel(SCALARS, x), CR_ONE),
    "GreenKernel.coincidence E": (lambda x: green_kernel(SCALARS).coincidence(x), CR_ONE),
    # one scalar given, the rest left at the field defaults (int 0, a = 2)
    "RecurrenceSpec E": (lambda x: RecurrenceSpec(l=1, E=x), CR_ONE),
    "RecurrenceSpec rho": (lambda x: RecurrenceSpec(l=1, rho=x), CR_ONE),
    "RecurrenceSpec sigma": (lambda x: RecurrenceSpec(l=1, sigma=x), CR_ONE),
    "RecurrenceSpec tau": (lambda x: RecurrenceSpec(l=1, tau=x), CR_ONE),
    "RecurrenceSpec ab": (lambda x: RecurrenceSpec(l=1, ab=x), CR_ONE),
    "RecurrenceSpec a": (lambda x: RecurrenceSpec(l=1, a=x), CR_ONE),
    # every scalar given, SPEC's values with one replaced
    **{f"RecurrenceSpec({name})": (lambda x, name=name: _plain_spec(**{name: x}), CR_ONE)
       for name in ("rho", "sigma", "tau", "ab", "E", "a")},
    **{f"KernelScalars({name})": (lambda x, name=name: _plain_scalars(**{name: x}), CR_ONE)
       for name in ("a", "rho", "sigma", "tau")},
    "Distribution center": (lambda x: Distribution.delta(0, x, 1), Fraction(1, 2)),
    "Distribution coefficient": (lambda x: Distribution.delta(0, 0, x), Fraction(1, 2)),
    "Distribution scalar": (lambda x: Distribution.delta(0) * x, 2),
    "forward_real c0": (lambda x: forward_real(SPEC, x, 0, 4), CR_ONE),
    "forward_real c1": (lambda x: forward_real(SPEC, 1, x, 4), CR_ONE),
    "forward_imag c0": (lambda x: forward_imag(SPEC, x, 0, 4), CR_ONE),
    "forward_imag c1": (lambda x: forward_imag(SPEC, 1, x, 4), CR_ONE),
    "recur_real c_k-1": (lambda x: recur_real(SPEC, 1, x, 2), CR_ONE),
    "recur_imag c_k-2": (lambda x: recur_imag(SPEC, x, 1, 2), CR_ONE),
    "paper_ck A": (lambda x: paper_ck(x, 0, closed_form_roots_real, SPEC, 4, start=1), CR_ONE),
    "paper_ck B": (lambda x: paper_ck(1, x, closed_form_roots_real, SPEC, 4, start=1), CR_ZERO),
    "residual_check entry": (lambda x: residual_check(CoeffSequence((1, 1, x)), SPEC, "real"),
                             CR_ONE),
    "spin j": (spin, Fraction(1, 2)),
    "make_generators j": (make_generators, Fraction(1, 2)),
    "uea_expand j": (lambda x: uea_expand(UEAExpr.parse("1 * +-"), x), 1),
    "uea_heun j": (lambda x: uea_heun(x, HEUN), 1),
    "es_condition j": (lambda x: es_condition(x, HEUN), Fraction(3, 2)),
}

D = DiffOp.d()


def _ck(K=4, start=1):
    return paper_ck(1, 0, closed_form_roots_real, SPEC, K, start=start)


ES_OPERATOR = Analysis(2, HEUN).es_operator


# integer arguments: (entry point, its result at the int 2)
INTEGER_ARGUMENTS = {
    "RecurrenceSpec l": (lambda x: RecurrenceSpec(l=x).l, 2),
    "RecurrenceSpec(l)": (lambda x: RecurrenceSpec(x, *[CR_ONE] * 6).l, 2),
    "closed_form_roots_real k": (lambda x: closed_form_roots_real(SPEC, x),
                                 closed_form_roots_real(SPEC, 2)),
    "closed_form_roots_imag k": (lambda x: closed_form_roots_imag(SPEC, x),
                                 closed_form_roots_imag(SPEC, 2)),
    "recur_real k": (lambda x: recur_real(SPEC, 1, 1, x), recur_real(SPEC, 1, 1, 2)),
    "recur_imag k": (lambda x: recur_imag(SPEC, 1, 1, x), recur_imag(SPEC, 1, 1, 2)),
    "forward_real K": (lambda x: forward_real(SPEC, 1, 0, x), forward_real(SPEC, 1, 0, 2)),
    "forward_imag K": (lambda x: forward_imag(SPEC, 1, 0, x), forward_imag(SPEC, 1, 0, 2)),
    "paper_ck K": (lambda x: _ck(K=x), _ck(K=2)),
    "paper_ck start": (lambda x: _ck(start=x), _ck(start=2)),
    "KernelScalars n": (lambda x: KernelScalars(x, 3, 1, 5, 3).n, 2),
    "KernelScalars(n)": (lambda x: _plain_scalars(n=x).n, 2),
    "green_kernel p_override": (lambda x: green_kernel(SCALARS, p_override=x).p_bound, 2),
    "Distribution order": (lambda x: Distribution.delta(x).terms[0][0], 2),
    "monomial_times_delta n": (lambda x: monomial_times_delta(x, 3), monomial_times_delta(2, 3)),
    "monomial_times_delta m": (lambda x: monomial_times_delta(1, x), monomial_times_delta(1, 2)),
    "symbol_coeffs m_kl": (lambda x: symbol_coeffs(x, 1, SCALARS), symbol_coeffs(2, 1, SCALARS)),
    "symbol_coeffs n": (lambda x: symbol_coeffs(1, x, SCALARS), symbol_coeffs(1, 2, SCALARS)),
    "Analysis.theorem1_rows n": (lambda x: Analysis(x, HEUN).theorem1_rows().as_list(),
                                 Analysis(2, HEUN).theorem1_rows().as_list()),
    "Analysis.es_operator n": (lambda x: Analysis(x, HEUN).es_operator,
                               Analysis(2, HEUN).es_operator),
    "Analysis.es_coeffs n": (lambda x: Analysis(x, HEUN).es_coeffs,
                             Analysis(2, HEUN).es_coeffs),
    "Analysis.es_rows n": (lambda x: Analysis(x, HEUN).es_rows().as_list(),
                           Analysis(2, HEUN).es_rows().as_list()),
    "Analysis.spectrum n": (lambda x: Analysis(x, HEUN).spectrum, Analysis(2, HEUN).spectrum),
    "matrix_spectrum N": (lambda x: matrix_spectrum(qes_matrix(ES_OPERATOR, x))[2],
                          matrix_spectrum(qes_matrix(ES_OPERATOR, 2))[2]),
    "qes_matrix N": (lambda x: qes_matrix(D, x), qes_matrix(D, 2)),
    "monomial_images N": (lambda x: list(monomial_images(D, x)), list(monomial_images(D, 2))),
    "Polynomial.monomial k": (Polynomial.monomial, Polynomial([0, 0, 1])),
    "Polynomial.derivative order": (CUBIC.derivative, Polynomial([6, 24])),
    "Polynomial ** n": (lambda x: CUBIC ** x, CUBIC * CUBIC),
    "DiffOp.from_term order": (lambda x: DiffOp.from_term(Z, x), DiffOp([0, 0, Z])),
}
# the counts among them (orders, degrees, sizes): a negative value raises ValueError
ORDERS = ["Polynomial.monomial k", "Polynomial.derivative order", "Polynomial ** n",
          "DiffOp.from_term order", "paper_ck K", "paper_ck start", "Distribution order",
          "monomial_times_delta n", "monomial_times_delta m", "Analysis.spectrum n",
          "matrix_spectrum N", "qes_matrix N", "monomial_images N"]

# weight exponents: the same rule, but a non-integer or a value below 1
# raises NonIntegerExponents with the message a distsol report prints
WEIGHT_EXPONENTS = {
    "weight_expansion rho": (lambda x: weight_expansion(x, 2, 2, 3).rho, 2),
    "weight_expansion sigma": (lambda x: weight_expansion(2, x, 2, 3).sigma, 2),
    "weight_expansion tau": (lambda x: weight_expansion(2, 2, x, 3).tau, 2),
    "weight_value_at_zero rho": (lambda x: weight_value_at_zero(x, 2, 2, 3), CR_ZERO),
    "weight_value_at_zero sigma": (lambda x: weight_value_at_zero(1, x, 2, 3), CRat(3)),
    "weight_value_at_zero tau": (lambda x: weight_value_at_zero(1, 2, x, 3), CRat(3)),
}
EXACT_INT_RULE = {**INTEGER_ARGUMENTS, **WEIGHT_EXPONENTS}
INEXACT_REFUSED = {**ENTRY_POINTS,
                   **{name: (fn, 2) for name, (fn, _) in EXACT_INT_RULE.items()}}


@pytest.mark.parametrize("inexact", [0.5, 2.0, 0.5j, complex(1, 0)])
@pytest.mark.parametrize("name", sorted(INEXACT_REFUSED))
def test_float_or_complex_input_raises_type_error(name, inexact):
    fn, exact = INEXACT_REFUSED[name]
    fn(exact)
    with pytest.raises(TypeError, match=f"^cannot coerce {type(inexact).__name__} to CRat exactly$"):
        fn(inexact)




def test_plain_recurrence_spec_coerces_its_fields():
    plain = RecurrenceSpec(1, 1, 2, 1, 2, 1, 3)
    exact = RecurrenceSpec(1, CRat(1), CRat(2), CRat(1), CRat(2), CRat(1), CRat(3))
    assert type(plain.l) is int
    assert all(type(getattr(plain, name)) is CRat
               for name in ("rho", "sigma", "tau", "ab", "E", "a"))
    assert plain == exact and hash(plain) == hash(exact)
    assert forward_real(plain, 1, 0, 6).as_list() == forward_real(exact, 1, 0, 6).as_list()
    assert forward_imag(plain, 1, 0, 6).as_list() == forward_imag(exact, 1, 0, 6).as_list()


def test_plain_kernel_scalars_coerce_their_fields():
    plain = KernelScalars(1, 2, 1, 3, 2)
    exact = KernelScalars(1, CRat(2), CRat(1), CRat(3), CRat(2))
    assert type(plain.n) is int
    assert all(type(getattr(plain, name)) is CRat for name in ("a", "rho", "sigma", "tau"))
    assert plain == exact and hash(plain) == hash(exact)
    got, want = green_kernel(plain), green_kernel(exact)
    assert (got.kp, got.scalar, got.hs_norm_sq()) == (want.kp, want.scalar, want.hs_norm_sq())


@pytest.mark.parametrize("exact", [2, Fraction(4, 2), CRat(2)])
@pytest.mark.parametrize("name", sorted(EXACT_INT_RULE))
def test_integer_valued_exact_argument_is_accepted(name, exact):
    fn, expected = EXACT_INT_RULE[name]
    got = fn(exact)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("name", sorted(EXACT_INT_RULE))
def test_bool_integer_argument_raises_type_error(name):
    fn, _ = EXACT_INT_RULE[name]
    with pytest.raises(TypeError, match="must be an exact integer, got bool$"):
        fn(True)


@pytest.mark.parametrize("value", [Fraction(5, 2), CRat(Fraction(3, 2)), CRat(2, 1)])
@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_non_integer_exact_argument_raises_value_error(name, value):
    fn, _ = INTEGER_ARGUMENTS[name]
    with pytest.raises(ValueError, match=f"must be an integer, got {re.escape(str(value))}$"):
        fn(value)


@pytest.mark.parametrize("value", [-1, -3, Fraction(-4, 2)])
@pytest.mark.parametrize("name", ORDERS)
def test_negative_order_raises_value_error(name, value):
    fn, _ = INTEGER_ARGUMENTS[name]
    with pytest.raises(ValueError, match=f"must be nonnegative, got {int(value)}$"):
        fn(value)


@pytest.mark.parametrize("value, shown", [
    (Fraction(5, 2), "Fraction(5, 2)"), (CRat(Fraction(3, 2)), "3/2"), (CRat(2, 1), "2+1i"),
    (0, "0"), (CRat(0), "0"), (Fraction(-1), "Fraction(-1, 1)"),
])
@pytest.mark.parametrize("name", sorted(WEIGHT_EXPONENTS))
def test_weight_exponent_refusal_keeps_its_message(name, value, shown):
    fn, _ = WEIGHT_EXPONENTS[name]
    arg = name.split()[-1]
    with pytest.raises(NonIntegerExponents,
                       match=f"^{arg} must be a positive integer, got {re.escape(shown)}$"):
        fn(value)
