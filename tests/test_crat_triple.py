"""``CRat`` as its canonical ``triple``, the value ``(re_num + im_num i) /
den``, against a reference on pairs of ``Fraction`` parts.  Every result
must give the reference's two parts and be canonical: ``den > 0`` and
``gcd(re_num, im_num, den) == 1``.
"""

import math
import operator
from fractions import Fraction
from re import escape as re_escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie.algpoly import CR_ONE, CR_ZERO, CRat
from util import reference_crat_op


# -- the Fraction-pair reference ------------------------------------------------
# reference_crat_op (tests/util.py) keeps the formulas CRat used when it held
# two Fractions: + and - part by part, the four-product product, division
# through the squared modulus, powers by repeated products.


def assert_canonical(got, expected):
    """``got`` is the canonical triple of the Fraction pair ``expected``."""
    assert type(got) is CRat
    assert (got.re, got.im) == expected
    assert got.triple[2] > 0 and math.gcd(*got.triple) == 1
    re, im = expected
    den = math.lcm(re.denominator, im.denominator)
    assert got.triple == (re * den, im * den, den)


# -- operands -------------------------------------------------------------------

BIG = 10**60
small_part_st = st.fractions(min_value=-6, max_value=6, max_denominator=12)
big_part_st = st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG))
part_st = st.one_of(st.just(Fraction(0)), small_part_st, big_part_st)


@st.composite
def shared_factor_st(draw):
    """Parts whose denominators share a factor, such as ``1/6 + 1/4 i``."""
    common = draw(st.sampled_from((2, 3, 6, 12, 999983)))
    return CRat(Fraction(draw(st.integers(-30, 30)), common * draw(st.integers(1, 6))),
                Fraction(draw(st.integers(-30, 30)), common * draw(st.integers(1, 6))))


crat_st = st.one_of(
    st.builds(CRat, part_st, part_st),
    st.builds(CRat, part_st),
    st.builds(CRat, st.just(0), part_st),
    shared_factor_st(),
)
operand_st = st.one_of(crat_st, st.integers(-50, 50), st.integers(-BIG, BIG), part_st)

SHARED = CRat(Fraction(1, 6), Fraction(1, 4))


class TestTripleMatchesFractionPairs:
    @given(st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
           crat_st, operand_st, st.booleans())
    @example(operator.add, SHARED, CRat(Fraction(-1, 6), Fraction(-1, 4)), False)
    @example(operator.sub, SHARED, CRat(0, Fraction(1, 4)), False)
    @example(operator.mul, SHARED, 12, True)
    @example(operator.mul, SHARED, CRat.from_ints(2, -3, 12), False)  # the conjugate
    @example(operator.truediv, SHARED, Fraction(-1, 6), False)
    @example(operator.truediv, CRat(BIG, -BIG), CRat(Fraction(1, BIG), 3), True)
    # operands a shortcut past the one formula would serve
    @example(operator.mul, CRat(-4), SHARED, False)  # an integer times a complex value
    @example(operator.mul, SHARED, CRat(-4), False)
    @example(operator.mul, CRat(2, -3), CRat(-1, 5), False)  # two Gaussian integers
    @example(operator.add, CRat(2, -3), CRat(-1, 5), False)
    @example(operator.add, CRat(Fraction(1, 6), Fraction(5, 6)),
             CRat(Fraction(-1, 6), Fraction(1, 6)), False)  # equal denominators
    @example(operator.sub, SHARED, CRat(3, -1), False)  # one denominator is 1
    @example(operator.truediv, SHARED, -3, False)  # a negative integer divisor
    @example(operator.truediv, SHARED, CRat(0, Fraction(-2, 3)), False)  # a pure imaginary one
    @settings(max_examples=600, deadline=None)
    def test_binary_ops(self, op, x, y, swap):
        if swap:
            x, y = y, x
        if op is operator.truediv and y == 0:
            with pytest.raises(ZeroDivisionError, match="^division by zero CRat$"):
                op(x, y)
            return
        assert_canonical(op(x, y), reference_crat_op(x, y, op))

    @given(crat_st, st.integers(-4, 6))
    @example(SHARED, -3)
    @example(CR_ZERO, 0)
    @settings(max_examples=200, deadline=None)
    def test_pow(self, x, n):
        if n < 0 and not x:
            with pytest.raises(ZeroDivisionError, match="^division by zero CRat$"):
                x ** n
            return
        assert_canonical(x ** n, reference_crat_op(x, n, operator.pow))

    @given(crat_st)
    @example(SHARED)
    @settings(max_examples=200, deadline=None)
    def test_negation_conjugate_and_abs2(self, x):
        re, im = x.re, x.im
        assert_canonical(-x, (-re, -im))
        a, b, d = x.triple
        assert_canonical(CRat.from_ints(a, -b, d), (re, -im))
        assert x.abs2() == re * re + im * im and type(x.abs2()) is Fraction

    @given(crat_st)
    @example(SHARED)
    @example(CRat(0, Fraction(-3, 4)))
    @example(CRat(Fraction(-1, 3), -1))
    @example(CRat(Fraction(5, 6), Fraction(1, 6)))  # 6 reduces in neither part alone
    @settings(max_examples=300, deadline=None)
    def test_text(self, x):
        # each part as its Fraction prints
        re, im = x.re, x.im
        if not im:
            expected = str(re)
        elif not re:
            expected = f"{im}i"
        else:
            expected = f"{re}{'+' if im > 0 else '-'}{abs(im)}i"
        assert str(x) == expected
        assert CRat.parse(str(x)) == x

    @given(st.integers(-BIG, BIG), st.integers(-BIG, BIG),
           st.one_of(st.integers(1, 50), st.integers(1, BIG)), st.integers(1, 10**6))
    @example(0, 0, 7, 1)
    @example(-2, 12, 6, 1)
    @example(3, 0, 1, 5)
    @settings(max_examples=200, deadline=None)
    def test_from_ints(self, a, b, d, common):
        # a factor shared by all three integers is reduced away
        got = CRat.from_ints(a * common, b * common, d * common)
        assert_canonical(got, (Fraction(a, d), Fraction(b, d)))

    @pytest.mark.parametrize("d", [0, -1])
    def test_from_ints_needs_a_positive_denominator(self, d):
        with pytest.raises(ValueError, match="denominator must be positive"):
            CRat.from_ints(1, 0, d)


# parts near the largest finite float and beyond it, and below the smallest
huge_part_st = st.builds(
    lambda k, e, d: Fraction(k * 2**e, d),
    st.integers(-2**60, 2**60), st.integers(960, 1040), st.integers(1, 2**12),
)
tiny_part_st = st.builds(Fraction, st.integers(-2**60, 2**60), st.integers(2**1070, 2**1200))
float_part_st = st.one_of(part_st, huge_part_st, tiny_part_st)


def float_parts(z: CRat) -> complex:
    return complex(float(z.re), float(z.im))


class TestComplexConversion:
    @given(float_part_st, float_part_st)
    @example(Fraction(2**1024 - 2**970, 3), Fraction(1, 3))  # past the largest float
    @example(Fraction(2**1024 - 2**971), Fraction(1, 2**1100))  # the largest float, 0.0
    @example(Fraction(-1, 2**1100), Fraction(3, 7))  # -0.0 and an inexact part
    @example(Fraction(0), Fraction(-2**1025, 3))
    @settings(max_examples=400, deadline=None)
    def test_matches_float_of_each_part(self, re, im):
        z = CRat(re, im)
        try:
            expected = float_parts(z)
        except OverflowError as exc:
            with pytest.raises(OverflowError, match=f"^{re_escape(str(exc))}$"):
                complex(z)
            return
        # repr tells -0.0 from 0.0, and every bit of each part
        assert repr(complex(z)) == repr(expected)

    def test_eigenvalue_matrix_entries(self):
        # the conversion heunop._float_eigenvalues applies to each entry
        for z in (SHARED, CRat(Fraction(-7, 3), Fraction(5, 9)), CRat(BIG, Fraction(1, BIG))):
            assert complex(z) == float_parts(z)
        assert complex(CR_ONE) == 1 + 0j and complex(CR_ZERO) == 0j
