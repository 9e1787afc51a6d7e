"""``Polynomial`` as one table of Gaussian-integer numerators over one
denominator, against the CRat-list reference of ``tests/util.py`` (the
algorithms that ran when a polynomial held one ``CRat`` per coefficient).
Every result must give the reference's coefficients and be canonical:
denominator > 0, the last pair nonzero, and no prime of the denominator
dividing every part.
"""

import math
import operator
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie.algpoly import (
    CR_ZERO,
    NEG_INF,
    CRat,
    DiffOp,
    HeunParams,
    OverflowColumn,
    Polynomial,
    commutator,
    op_apply,
    op_compose,
)
from heunlie.heunop import (
    INFINITY,
    NotRegularSingular,
    build_expanded,
    indicial_exponents,
    qes_matrix,
)
from util import (
    list_add,
    list_commutator,
    list_derivative,
    list_eval,
    list_indicial_exponents,
    list_mul,
    list_op,
    list_op_apply,
    list_op_compose,
    list_poly,
    list_qes_matrix,
    list_scale,
    list_sub,
)

# -- operands -------------------------------------------------------------------

LARGE_PRIMES = (999983, 2**61 - 1, 10**9 + 7)
part_st = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.sampled_from(LARGE_PRIMES)),
)
crat_st = st.one_of(st.builds(CRat, part_st), st.builds(CRat, part_st, part_st))
scalar_st = st.one_of(crat_st, part_st, st.integers(-50, 50))


def coeffs_st(max_deg=5):
    # trailing zeros are drawn often, so trimming is exercised
    return st.lists(st.one_of(crat_st, st.just(CR_ZERO)), max_size=max_deg + 1)


def op_st(max_order=3, max_deg=3):
    return st.lists(coeffs_st(max_deg), max_size=max_order + 1)


def as_op(polys):
    """The operator and its reference form from coefficient lists."""
    return DiffOp([Polynomial(cs) for cs in polys]), list_op(polys)


def assert_table(p, expected):
    """``p`` is the canonical table of the reference coefficients
    ``expected``, and reads, compares and hashes as they do."""
    num, den = p._num, p._den
    assert type(num) is tuple and den > 0
    assert num == () and den == 1 or num[-1] != (0, 0)
    assert math.gcd(den, *chain.from_iterable(num)) == 1
    assert p.coeffs == expected and all(type(c) is CRat for c in p.coeffs)
    assert p.degree == (len(expected) - 1 if expected else NEG_INF)
    assert [p.coeff(k) for k in range(-1, len(expected) + 2)] == [CR_ZERO, *expected,
                                                                CR_ZERO, CR_ZERO]
    if len(expected) <= 1:
        # a constant equals its scalar and hashes as it
        scalar = expected[0] if expected else CR_ZERO
        assert p == scalar and hash(p) == hash(scalar)
    else:
        assert hash(p) == hash(expected)
    assert p == Polynomial(expected) and hash(p) == hash(Polynomial(expected))


def assert_op(L, expected):
    assert len(L.terms) == len(expected)
    for term, ref in zip(L.terms, expected):
        assert_table(term, ref)


# -- polynomial arithmetic -----------------------------------------------------------


class TestTableMatchesCRatLists:
    @given(coeffs_st())
    @example([CRat(Fraction(1, 6)), CRat(0, Fraction(1, 4)), CR_ZERO])
    @example([CRat(2), CRat(4), CRat(6)])  # integer content stays over denominator 1
    @settings(max_examples=200, deadline=None)
    def test_construction(self, cs):
        assert_table(Polynomial(cs), list_poly(cs))

    @given(st.lists(st.tuples(st.integers(-10**20, 10**20), st.integers(-10**20, 10**20)),
                    max_size=6),
           st.one_of(st.integers(1, 50), st.sampled_from(LARGE_PRIMES)))
    @example([(2, 0), (4, 6), (0, 0)], 2)  # content 2 cancels, a zero pair trails
    @example([(0, 0)], 7)
    @settings(max_examples=200, deadline=None)
    def test_from_ints(self, num, den):
        expected = list_poly(CRat.from_ints(a, b, den) for a, b in num)
        assert_table(Polynomial.from_ints(num, den), expected)

    @pytest.mark.parametrize("den", [0, -3])
    def test_from_ints_refuses_a_denominator_below_one(self, den):
        with pytest.raises(ValueError, match=f"^denominator must be positive, got {den}$"):
            Polynomial.from_ints([(1, 0)], den)

    @given(st.sampled_from([(operator.add, list_add), (operator.sub, list_sub),
                            (operator.mul, list_mul)]),
           coeffs_st(), coeffs_st())
    @example((operator.sub, list_sub), [CRat(Fraction(1, 3)), CRat(Fraction(2, 3))],
             [CRat(Fraction(-2, 3)), CRat(Fraction(2, 3))])  # the sum cancels to 1
    @example((operator.mul, list_mul), [CRat(Fraction(1, 2), Fraction(1, 2))],
             [CRat(1, -1)])  # (1+i)/2 (1-i) = 1
    @example((operator.mul, list_mul), [CRat(Fraction(1, 2)), CRat(3)],
             [CRat(1, Fraction(1, 3)), CRat(0, 2)])  # a real table times a complex one
    @settings(max_examples=300, deadline=None)
    def test_ring_operations(self, ops, ps, qs):
        op, ref = ops
        assert_table(op(Polynomial(ps), Polynomial(qs)), ref(list_poly(ps), list_poly(qs)))

    @given(coeffs_st(), scalar_st)
    @example([CRat(Fraction(3, 2)), CRat(Fraction(1, 2))], 2)
    @example([CRat(1, Fraction(1, 2)), CRat(0, 3)], Fraction(-2, 3))  # a real multiple
    @settings(max_examples=200, deadline=None)
    def test_scalar_product_and_sum(self, ps, c):
        p, ref = Polynomial(ps), list_poly(ps)
        assert_table(p * c, list_scale(ref, c))
        assert_table(c * p, list_scale(ref, c))
        assert_table(p + c, list_add(ref, list_poly([c])))
        assert_table(c - p, list_sub(list_poly([c]), ref))

    @given(coeffs_st(), st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_derivative(self, ps, order):
        assert_table(Polynomial(ps).derivative(order), list_derivative(list_poly(ps), order))

    @given(coeffs_st(), crat_st)
    @settings(max_examples=200, deadline=None)
    def test_exact_eval(self, ps, x):
        got = Polynomial(ps).eval(x)
        assert type(got) is CRat and got == list_eval(list_poly(ps), x)

    @given(coeffs_st(), st.complex_numbers(max_magnitude=10, allow_nan=False,
                                           allow_infinity=False), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_float_eval(self, ps, x, real):
        # the same Horner loop on the same correctly rounded coefficients
        x = x.real if real else x
        got = Polynomial(ps).eval(x)
        assert type(got) is complex and got == list_eval(list_poly(ps), x)

    @given(coeffs_st(4), coeffs_st(2))
    @settings(max_examples=150, deadline=None)
    def test_eval_at_a_polynomial_is_the_composition(self, ps, qs):
        expected = ()
        for c in reversed(list_poly(ps)):
            expected = list_add(list_mul(expected, list_poly(qs)), list_poly([c]))
        assert_table(Polynomial(ps).eval(Polynomial(qs)), expected)


# -- operators ---------------------------------------------------------------------


class TestOperatorsMatchCRatLists:
    @given(op_st(), coeffs_st(6))
    @settings(max_examples=150, deadline=None)
    def test_op_apply(self, ls, fs):
        (L, ref), f = as_op(ls), Polynomial(fs)
        assert_table(op_apply(L, f), list_op_apply(ref, list_poly(fs)))

    @given(op_st(), op_st())
    @settings(max_examples=150, deadline=None)
    def test_op_compose_and_commutator(self, ls, ms):
        (L, lref), (M, mref) = as_op(ls), as_op(ms)
        assert_op(op_compose(L, M), list_op_compose(lref, mref))
        assert_op(commutator(L, M), list_commutator(lref, mref))

    @given(op_st(2, 3), st.integers(0, 7))
    # z^3 D^2 - 2 z sends z^c to (c(c-1) - 2) z^(c+1): column 2's terms leave
    # the space and cancel, so N = 2 passes, and N = 1 and 3 overflow first
    # at column 1 and 3
    @example([[CRat(0), CRat(-2)], [], [CRat(0), CRat(0), CRat(0), CRat(1)]], 1)
    @example([[CRat(0), CRat(-2)], [], [CRat(0), CRat(0), CRat(0), CRat(1)]], 2)
    @example([[CRat(0), CRat(-2)], [], [CRat(0), CRat(0), CRat(0), CRat(1)]], 3)
    @settings(max_examples=200, deadline=None)
    def test_qes_matrix(self, ls, N):
        L, ref = as_op(ls)
        try:
            expected = list_qes_matrix(ref, N)
        except OverflowColumn as exc:
            with pytest.raises(OverflowColumn) as got:
                qes_matrix(L, N)
            assert (got.value.column, got.value.degree, got.value.bound) == (
                exc.column, exc.degree, exc.bound)
            assert str(got.value) == str(exc)
        else:
            assert qes_matrix(L, N) == expected


heun_params_st = st.builds(
    HeunParams, crat_st.filter(lambda a: a not in (0, 1)), crat_st, crat_st, crat_st,
    crat_st, crat_st, crat_st)


@st.composite
def second_order_st(draw):
    """A Heun operator (regular singular at 0, 1, a and infinity) or a drawn
    second-order operator, with a point: 0, 1, a, infinity or a drawn one."""
    if draw(st.booleans()):
        params = draw(heun_params_st)
        L = build_expanded(params)
        point = draw(st.sampled_from([CRat(0), CRat(1), params.a, INFINITY]))
    else:
        L = DiffOp([Polynomial(draw(coeffs_st(4))) for _ in range(3)])
        point = draw(st.one_of(st.sampled_from([CRat(0), INFINITY]), crat_st))
    return L, point


class TestIndicialMatchesCRatLists:
    @given(second_order_st())
    @settings(max_examples=200, deadline=None)
    def test_indicial_exponents(self, case):
        L, point = case
        ref = list_op(t.coeffs for t in L.terms)
        try:
            expected = list_indicial_exponents(ref, point)
        except NotRegularSingular as exc:
            with pytest.raises(NotRegularSingular) as got:
                indicial_exponents(L, point)
            assert str(got.value) == str(exc)
        else:
            assert indicial_exponents(L, point) == expected
