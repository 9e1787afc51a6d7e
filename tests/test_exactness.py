"""The exactness contract: the recurrence and kernel layers take exact
scalars only, and a report carries floats only under the keys that README
lists (the floating spectrum and the step level ``lambda``)."""

import json
import re
from fractions import Fraction

import pytest

from heunlie import cli
from heunlie.algpoly import CR_ONE, CR_ZERO, CRat
from heunlie.distsol import (
    NonIntegerExponents,
    RecurrenceSpec,
    closed_form_roots_imag,
    closed_form_roots_real,
    forward_imag,
    forward_real,
    paper_ck,
    recur_imag,
    recur_real,
    weight_expansion,
    weight_value_at_zero,
)
from heunlie.greenssf import (
    Distribution,
    KernelScalars,
    green_coincidence,
    green_kernel,
    hs_norm_sq,
    kp_constant,
)
from heunlie.heunop import HeunParams, es_condition, uea_heun, verify_theorem1
from heunlie.sl2rep import UEAExpr, make_generators, uea_expand

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


SPEC = RecurrenceSpec.make(l=1, rho=1, sigma=2, tau=1, ab=2, E=1, a=3)
HEUN = HeunParams(3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(1, 3),
                  Fraction(-1, 2), Fraction(7, 5))
SCALARS = KernelScalars.direct(1, 3, 1, 5, 3)

# (entry point, an exact value it accepts)
ENTRY_POINTS = {
    "green_kernel s_eval": (lambda x: green_kernel(SCALARS, x), CR_ONE),
    "kp_constant s_eval": (lambda x: kp_constant(SCALARS, s_eval=x), CR_ONE),
    "hs_norm_sq s_eval": (lambda x: hs_norm_sq(SCALARS, s_eval=x), CR_ONE),
    "green_coincidence E": (lambda x: green_coincidence(SCALARS, E=x), CR_ONE),
    "GreenKernel.coincidence E": (lambda x: green_kernel(SCALARS).coincidence(x), CR_ONE),
    "RecurrenceSpec E": (lambda x: RecurrenceSpec.make(l=1, E=x), CR_ONE),
    "RecurrenceSpec l": (lambda x: RecurrenceSpec.make(l=x), 2),
    "RecurrenceSpec rho": (lambda x: RecurrenceSpec.make(l=1, rho=x), CR_ONE),
    "RecurrenceSpec sigma": (lambda x: RecurrenceSpec.make(l=1, sigma=x), CR_ONE),
    "RecurrenceSpec tau": (lambda x: RecurrenceSpec.make(l=1, tau=x), CR_ONE),
    "RecurrenceSpec ab": (lambda x: RecurrenceSpec.make(l=1, ab=x), CR_ONE),
    "RecurrenceSpec a": (lambda x: RecurrenceSpec.make(l=1, a=x), CR_ONE),
    "KernelScalars.direct n": (lambda x: KernelScalars.direct(x, 3, 1, 5, 3), 1),
    "green_kernel p_override": (lambda x: green_kernel(SCALARS, p_override=x), 2),
    "kp_constant p_override": (lambda x: kp_constant(SCALARS, p_override=x), 2),
    "hs_norm_sq p_override": (lambda x: hs_norm_sq(SCALARS, p_override=x), 2),
    "green_coincidence p_override": (lambda x: green_coincidence(SCALARS, p_override=x), 2),
    "weight_expansion rho": (lambda x: weight_expansion(x, 2, 2, 3), 2),
    "weight_expansion sigma": (lambda x: weight_expansion(2, x, 2, 3), 2),
    "weight_expansion tau": (lambda x: weight_expansion(2, 2, x, 3), 2),
    "weight_value_at_zero rho": (lambda x: weight_value_at_zero(x, 2, 2, 3), 1),
    "weight_value_at_zero sigma": (lambda x: weight_value_at_zero(1, x, 2, 3), 2),
    "weight_value_at_zero tau": (lambda x: weight_value_at_zero(1, 2, x, 3), 2),
    "Distribution center": (lambda x: Distribution.delta(0, x, 1), Fraction(1, 2)),
    "Distribution coefficient": (lambda x: Distribution.delta(0, 0, x), Fraction(1, 2)),
    "Distribution scalar": (lambda x: Distribution.delta(0) * x, 2),
    "forward_real c0": (lambda x: forward_real(SPEC, x, 0, 4), CR_ONE),
    "forward_real c1": (lambda x: forward_real(SPEC, 1, x, 4), CR_ONE),
    "forward_imag c0": (lambda x: forward_imag(SPEC, x, 0, 4), CR_ONE),
    "forward_imag c1": (lambda x: forward_imag(SPEC, 1, x, 4), CR_ONE),
    "recur_real c_k-1": (lambda x: recur_real(SPEC, 1, x, 2), CR_ONE),
    "recur_imag c_k-2": (lambda x: recur_imag(SPEC, x, 1, 2), CR_ONE),
    "recur_real k": (lambda x: recur_real(SPEC, 1, 1, x), 2),
    "recur_imag k": (lambda x: recur_imag(SPEC, 1, 1, x), 2),
    "paper_ck A": (lambda x: paper_ck(x, 0, closed_form_roots_real, SPEC, 4, start=1), CR_ONE),
    "paper_ck B": (lambda x: paper_ck(1, x, closed_form_roots_real, SPEC, 4, start=1), CR_ZERO),
    "closed_form_roots_real k": (lambda x: closed_form_roots_real(SPEC, x), 2),
    "closed_form_roots_imag k": (lambda x: closed_form_roots_imag(SPEC, x), 2),
    "make_generators j": (make_generators, Fraction(1, 2)),
    "uea_expand j": (lambda x: uea_expand(UEAExpr.parse("1 * +-"), x), 1),
    "uea_heun j": (lambda x: uea_heun(x, HEUN), 1),
    "verify_theorem1 j": (lambda x: verify_theorem1(x, HEUN), 1),
    "es_condition j": (lambda x: es_condition(x, HEUN), Fraction(3, 2)),
}


@pytest.mark.parametrize("inexact", [0.5, 2.0, 0.5j, complex(1, 0)])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_float_or_complex_input_raises_type_error(name, inexact):
    fn, exact = ENTRY_POINTS[name]
    fn(exact)
    with pytest.raises(TypeError, match=f"^cannot coerce {type(inexact).__name__} to CRat exactly$"):
        fn(inexact)


# integer arguments: (entry point, its result at the int 2)
INTEGER_ARGUMENTS = {
    "RecurrenceSpec l": (lambda x: RecurrenceSpec.make(l=x).l, 2),
    "closed_form_roots_real k": (lambda x: closed_form_roots_real(SPEC, x),
                                 closed_form_roots_real(SPEC, 2)),
    "closed_form_roots_imag k": (lambda x: closed_form_roots_imag(SPEC, x),
                                 closed_form_roots_imag(SPEC, 2)),
    "recur_real k": (lambda x: recur_real(SPEC, 1, 1, x), recur_real(SPEC, 1, 1, 2)),
    "recur_imag k": (lambda x: recur_imag(SPEC, 1, 1, x), recur_imag(SPEC, 1, 1, 2)),
    "KernelScalars.direct n": (lambda x: KernelScalars.direct(x, 3, 1, 5, 3).n, 2),
    "green_kernel p_override": (lambda x: green_kernel(SCALARS, p_override=x).p_bound, 2),
    "kp_constant p_override": (lambda x: kp_constant(SCALARS, p_override=x),
                               kp_constant(SCALARS, p_override=2)),
    "hs_norm_sq p_override": (lambda x: hs_norm_sq(SCALARS, p_override=x),
                              hs_norm_sq(SCALARS, p_override=2)),
    "green_coincidence p_override": (lambda x: green_coincidence(SCALARS, p_override=x),
                                     green_coincidence(SCALARS, p_override=2)),
}

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
