import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie.algpoly import (
    CR_I,
    CR_ONE,
    CR_ZERO,
    CRat,
    DiffOp,
    NEG_INF,
    Polynomial,
    Surd,
    commutator,
    csqrt_exact,
    op_apply,
    op_compose,
    quadratic_roots,
)
from util import rand_crat, rand_op, rand_poly

fractions_st = st.fractions(min_value=-6, max_value=6, max_denominator=4)
crat_st = st.builds(CRat, fractions_st, fractions_st)


def poly_st(max_deg=4):
    return st.lists(crat_st, min_size=0, max_size=max_deg + 1).map(Polynomial)


def op_st(max_order=2, max_deg=2):
    return st.lists(poly_st(max_deg), min_size=0, max_size=max_order + 1).map(DiffOp)


@st.composite
def literal_st(draw):
    """An exact literal built from the grammar's parts, with the real and
    imaginary ``Fraction`` it denotes: signs, leading zeros, ``p/q``, a bare
    ``i``, zero parts and spaces around the imaginary sign."""

    def rational():
        num = draw(st.integers(0, 10**6))
        text, value = "0" * draw(st.integers(0, 2)) + str(num), Fraction(num)
        if draw(st.booleans()):
            den = draw(st.integers(1, 10**6))
            text += "/" + "0" * draw(st.integers(0, 2)) + str(den)
            value /= den
        return text, value

    def signed(signs):
        sign = draw(st.sampled_from(signs))
        return sign, -1 if sign == "-" else 1

    has_re, has_im = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    text, re, im = "", Fraction(0), Fraction(0)
    if has_re:
        sign, unit = signed(["", "+", "-"])
        digits, value = rational()
        text, re = sign + digits, unit * value
    if has_im:
        sign, unit = signed(["+", "-"] if has_re else ["", "+", "-"])
        digits, value = ("", Fraction(1)) if draw(st.booleans()) else rational()
        space = draw(st.sampled_from(["", " "]))
        text += f"{space}{sign}{space}{digits}i"
        im = unit * value
    return text, re, im


class TestCRat:
    @pytest.mark.parametrize(
        "text,re,im",
        [
            ("3/2", Fraction(3, 2), 0),
            ("-2", -2, 0),
            ("i", 0, 1),
            ("-i", 0, -1),
            ("2i", 0, 2),
            ("1/2i", 0, Fraction(1, 2)),
            ("3+2i", 3, 2),
            ("3-1/2i", 3, Fraction(-1, 2)),
            ("-3/2-1/2i", Fraction(-3, 2), Fraction(-1, 2)),
            ("3/2+i", Fraction(3, 2), 1),
        ],
    )
    def test_parse(self, text, re, im):
        v = CRat.parse(text)
        assert v.re == Fraction(re) and v.im == Fraction(im)

    # a line break inside a literal is refused like any whitespace but a space
    @pytest.mark.parametrize("bad", ["1.5", "pi", "", "1e3", "1+", "i2", "2/0",
                                     "1\n-2i", "1/2\n+3i", "1+3\ni"])
    def test_parse_rejects_inexact(self, bad):
        with pytest.raises(ValueError):
            CRat.parse(bad)

    @given(literal_st())
    @example(("-0", Fraction(0), Fraction(0)))
    @example(("007/010-i", Fraction(7, 10), Fraction(-1)))
    @settings(max_examples=300, deadline=None)
    def test_parse_matches_grammar_parts(self, case):
        text, re, im = case
        v = CRat.parse(text)
        assert (v.re, v.im) == (re, im)

    def test_str_round_trip(self):
        rng = random.Random(7)
        for _ in range(200):
            v = rand_crat(rng, complex_ok=True)
            assert CRat.parse(str(v)) == v

    def test_field_identities(self):
        rng = random.Random(11)
        for _ in range(100):
            x = rand_crat(rng, complex_ok=True)
            y = rand_crat(rng, complex_ok=True)
            if not y.is_zero():
                assert (x / y) * y == x
            assert x * y == y * x
            assert x - x == CR_ZERO
        assert CR_I * CR_I == CRat(-1)
        assert CRat(3, 4).abs2() == Fraction(25)

    def test_pow_and_complex_mix(self):
        assert CRat(2) ** 10 == CRat(1024)
        assert CRat(2) ** -2 == CRat(Fraction(1, 4))
        with pytest.raises(TypeError):
            CRat(1, 1) + 0.5
        with pytest.raises(TypeError):
            2.0 * CRat(0, 1)


class TestSurd:
    def test_perfect_square_folds(self):
        assert Surd(0, 1, Fraction(9, 4)) == CRat(Fraction(3, 2))
        assert Surd(1, 2, 4) == CRat(5)
        assert Surd(0, 1, -4) == CRat(0, 2)

    def test_negative_radicand_is_principal(self):
        s = Surd(0, 1, -5)
        val = complex(s)
        assert val.real == pytest.approx(0.0)
        assert val.imag == pytest.approx(5 ** 0.5)

    def test_arithmetic_in_fixed_field(self):
        one_plus = Surd(1, 1, 5)
        one_minus = Surd(1, -1, 5)
        assert one_plus * one_minus == CRat(-4)
        assert one_plus + one_minus == CRat(2)
        assert (one_plus ** 2) == Surd(6, 2, 5)

    @given(crat_st, crat_st, st.sampled_from([2, 5, -3, 4]), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_pow_matches_repeated_products(self, base, coef, rad, n):
        x = Surd(base, coef, rad)
        expected = Surd(1)
        for _ in range(n):
            expected = expected * x
        got = x ** n
        assert (got.base, got.coef, got.rad) == (expected.base, expected.coef, expected.rad)

    @pytest.mark.parametrize("n", [-1, 1.5])
    def test_pow_refuses_negative_and_non_int_exponents(self, n):
        with pytest.raises(TypeError):
            Surd(1, 1, 5) ** n

    @pytest.mark.parametrize("y", [1.5, 2 + 1j, 0.5j])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    @pytest.mark.parametrize("x", [Surd(1, 1, 5), Surd(Fraction(1, 2))])
    def test_float_and_complex_operands_raise_type_error(self, x, op, y):
        with pytest.raises(TypeError):
            op(x, y)
        with pytest.raises(TypeError):
            op(y, x)

    def test_cross_radicand_equality(self):
        assert Surd(0, 2, 2) == Surd(0, 1, 8)
        assert Surd(0, -2, 2) != Surd(0, 1, 8)
        assert Surd(0, 1, 2) != Surd(0, 1, 3)

    def test_quadratic_roots_satisfy_quadratic(self):
        rng = random.Random(13)
        for _ in range(60):
            a = rand_crat(rng)
            if a.is_zero():
                a = CR_ONE
            b = rand_crat(rng)
            c = rand_crat(rng)
            for r in quadratic_roots(a, b, c):
                assert Surd.from_value(a) * r * r + Surd.from_value(b) * r + Surd.from_value(c) == Surd(0)


# (u + v i) / d over a wide range, so the roots reach past machine words
gaussian_st = st.builds(CRat.from_ints, st.integers(-10**20, 10**20),
                        st.integers(-10**20, 10**20), st.integers(1, 10**6))


def _principal(z: CRat) -> bool:
    return z.re > 0 or (z.re == 0 and z.im >= 0)


class TestCsqrtExact:
    def test_examples(self):
        assert csqrt_exact(CRat(0, 2)) == CRat(1, 1)  # sqrt(2i) = 1 + i
        assert csqrt_exact(CRat(3, 4)) == CRat(2, 1)
        assert csqrt_exact(CRat(2)) is None
        assert csqrt_exact(CRat(-4)) == CRat(0, 2)
        assert csqrt_exact(CRat(Fraction(-1, 9))) == CRat(0, Fraction(1, 3))
        assert csqrt_exact(CR_ZERO) == CR_ZERO

    @given(gaussian_st)
    @settings(max_examples=300, deadline=None)
    def test_root_of_a_square_is_the_principal_sign(self, w):
        root = csqrt_exact(w * w)
        assert root == (w if _principal(w) else -w)

    @given(st.one_of(gaussian_st, gaussian_st.map(lambda w: w * w),
                     gaussian_st.map(lambda w: -w * w), crat_st))
    @settings(max_examples=300, deadline=None)
    def test_root_is_none_or_squares_back(self, z):
        root = csqrt_exact(z)
        assert root is None or (root * root == z and _principal(root))


nonzero_crat_st = crat_st.filter(lambda x: not x.is_zero())
positive_st = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4)


class TestSurdHash:
    """Equal surds hash equally, also across radicands that differ by a
    square factor."""

    @given(crat_st, crat_st, crat_st, crat_st, crat_st)
    @settings(max_examples=200, deadline=None)
    def test_same_radicand_pairs(self, base, coef, rad, other_base, other_coef):
        a = Surd(base, coef, rad)
        for b in (Surd(base, coef, rad), Surd(base, other_coef, rad), Surd(other_base, coef, rad)):
            if a == b:
                assert hash(a) == hash(b)

    @given(crat_st, crat_st, crat_st, nonzero_crat_st)
    @settings(max_examples=300, deadline=None)
    def test_square_scaled_pairs(self, base, coef, rad, scale):
        a = Surd(base, coef, rad)
        b = Surd(base, coef / scale, rad * scale * scale)
        if a == b:
            assert hash(a) == hash(b)
        assert len({a, b}) == (1 if a == b else 2)

    @given(crat_st, crat_st, fractions_st, positive_st)
    @example(CR_ZERO, CRat(2), Fraction(2), Fraction(1, 2))
    @example(CRat(1, 1), CRat(0, 3), Fraction(-3), Fraction(2))
    @settings(max_examples=200, deadline=None)
    def test_positive_rational_scale_is_equal(self, base, coef, rad, scale):
        a = Surd(base, coef, rad)
        b = Surd(base, coef / scale, rad * scale * scale)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1


class TestPartFractions:
    """``.re`` and ``.im`` are the reduced ``Fraction`` of each part, also
    when the other part widens the shared denominator."""

    @given(st.fractions(max_denominator=10**9), st.fractions(max_denominator=10**9),
           st.fractions(max_denominator=10**9))
    @example(Fraction(0), Fraction(1), Fraction(0))
    @example(Fraction(-7, 3), Fraction(-2), Fraction(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, x, y, other):
        for z in (CRat(x, other).re, CRat(other, x).im):
            assert type(z) is Fraction
            assert z == x and hash(z) == hash(x) and {z: 1}[x] == 1
            assert str(z) == str(x) and repr(z) == repr(x)
            assert (z.numerator, z.denominator) == (x.numerator, x.denominator)
            assert z + y == x + y and z - y == x - y and z * y == x * y
            assert -z == -x and abs(z) == abs(x) and z ** 3 == x ** 3
            assert (z < y) == (x < y) and float(z) == float(x)
            if y:
                assert z / y == x / y
            if z:
                assert y / z == y / x


class TestPolynomial:
    def test_product_examples(self):
        z = Polynomial.variable()
        one = Polynomial.one()
        assert (z + one) * (z - one) == Polynomial([-1, 0, 1])
        p = Polynomial([2, 0, 5])
        assert one * p == p
        assert (z - one) * (z - Polynomial([2])) == Polynomial([2, -3, 1])

    def test_degree_rules(self):
        assert Polynomial.zero().degree == NEG_INF
        assert Polynomial([1]).degree == 0
        rng = random.Random(17)
        for _ in range(50):
            p = rand_poly(rng)
            q = rand_poly(rng)
            if not p.is_zero() and not q.is_zero():
                assert (p * q).degree == p.degree + q.degree

    def test_derivative_and_eval(self):
        p = Polynomial([1, 2, 3])  # 1 + 2z + 3z^2
        assert p.derivative() == Polynomial([2, 6])
        assert p.eval(CRat(2)) == CRat(17)
        assert p.derivative(3) == Polynomial.zero()

    @given(poly_st(6), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_derivative_of_order_m_is_m_single_derivatives(self, p, m):
        expected = p
        for _ in range(m):
            expected = expected.derivative()
        assert p.derivative(m) == expected

    @given(poly_st(3), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_pow_matches_repeated_products(self, p, n):
        expected = Polynomial.one()
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected

    @pytest.mark.parametrize("n, error", [(-1, ValueError), (1.5, TypeError), (True, TypeError)])
    def test_pow_refuses_negative_and_non_int_exponents(self, n, error):
        with pytest.raises(error):
            Polynomial([1, 1]) ** n

    @given(poly_st(), poly_st())
    @settings(max_examples=40, deadline=None)
    def test_mul_commutative(self, p, q):
        assert p * q == q * p

    @given(poly_st(3), poly_st(3), poly_st(3))
    @settings(max_examples=40, deadline=None)
    def test_mul_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)


class TestDiffOp:
    def test_apply_examples(self):
        d = DiffOp.d()
        assert op_apply(d, Polynomial.monomial(3)) == Polynomial([0, 0, 3])
        # raising generator at spin 1/2 applied to 1
        jp = DiffOp.from_term(Polynomial.monomial(2), 1) + DiffOp.from_term(
            Polynomial([0, -1]), 0
        )
        assert op_apply(jp, Polynomial.one()) == Polynomial([0, -1])
        # neutral generator at spin 1/2 applied to z
        j0 = DiffOp.from_term(Polynomial.variable(), 1) + DiffOp.from_term(
            Polynomial([Fraction(-1, 2)]), 0
        )
        assert op_apply(j0, Polynomial.variable()) == Polynomial([0, Fraction(1, 2)])

    def test_compose_product_rule(self):
        d = DiffOp.d()
        mult_z = DiffOp.from_term(Polynomial.variable(), 0)
        assert op_compose(d, mult_z) == DiffOp([Polynomial.one(), Polynomial.variable()])

    def test_compose_euler_squared(self):
        zd = DiffOp.from_term(Polynomial.variable(), 1)
        expected = DiffOp(
            [Polynomial.zero(), Polynomial.variable(), Polynomial.monomial(2)]
        )
        composed = op_compose(zd, zd)
        assert composed == expected
        for m in range(7):
            zm = Polynomial.monomial(m)
            assert op_apply(composed, zm) == op_apply(zd, op_apply(zd, zm))

    def test_compose_raising_lowering_at_zero_spin(self):
        jp = DiffOp.from_term(Polynomial.monomial(2), 1)
        jm = DiffOp.d()
        assert op_compose(jp, jm) == DiffOp.from_term(Polynomial.monomial(2), 2)

    def test_commutator_examples(self):
        d = DiffOp.d()
        assert commutator(d, d) == DiffOp.zero()
        rng = random.Random(23)
        for _ in range(30):
            L = rand_op(rng)
            M = rand_op(rng)
            assert commutator(L, M) + commutator(M, L) == DiffOp.zero()

    @given(op_st(), op_st(), poly_st(10))
    @settings(max_examples=40, deadline=None)
    def test_compose_consistent_with_apply(self, L, M, f):
        assert op_apply(op_compose(L, M), f) == op_apply(L, op_apply(M, f))

    @given(op_st(1, 2), op_st(1, 2), op_st(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_jacobi_identity(self, A, B, C):
        total = (
            commutator(A, commutator(B, C))
            + commutator(B, commutator(C, A))
            + commutator(C, commutator(A, B))
        )
        assert total == DiffOp.zero()


# few, short coefficients, so that values whose text could collide are drawn
# often: signs, units, i and a fraction
UNIT_CRATS = [CR_ZERO, CR_ONE, -CR_ONE, CR_I, CRat(Fraction(-1, 2), 1), CRat(Fraction(3, 2))]
unit_crat_st = st.sampled_from(UNIT_CRATS)
printed_poly_st = st.one_of(poly_st(), st.lists(unit_crat_st, max_size=3).map(Polynomial))
printed_op_st = st.one_of(op_st(), st.lists(printed_poly_st, max_size=3).map(DiffOp))


class TestPrinter:
    """The printer is canonical: two polynomials, or two operators, print
    the same text exactly when they are equal."""

    def test_examples(self):
        assert str(Polynomial.zero()) == str(DiffOp.zero()) == "0"
        L = DiffOp([Polynomial.one(), Polynomial([0, -1, CRat(Fraction(3, 2), Fraction(1, 2))])])
        assert str(L) == "1 + (-1) z D + (3/2+1/2i) z^2 D"

    def test_sums_of_two_terms_print_apart(self):
        units = [c for c in UNIT_CRATS if c]
        terms = [DiffOp.from_term(Polynomial.monomial(k) * c, d)
                 for c in units for k in range(4) for d in range(4)]
        values = {a + b for i, a in enumerate(terms) for b in terms[i:]} | set(terms)
        assert len({str(v) for v in values}) == len(values)
        for c in units:
            for k in range(4):
                p = Polynomial.monomial(k) * c + Polynomial.one()
                assert str(p) == str(DiffOp.from_term(p))

    @given(printed_poly_st, printed_poly_st, st.integers(0, 3), st.integers(0, 5),
           unit_crat_st.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_polynomial(self, p, q, pad, k, coef):
        rebuilt = Polynomial([CRat(c.re, c.im) for c in p.coeffs] + [0] * pad)
        nudged = p + Polynomial.monomial(k) * coef
        shifted = Polynomial([0, *p.coeffs])
        conjugated = Polynomial([CRat.from_ints(a, -b, d) for a, b, d in (c.triple for c in p.coeffs)])
        for y in (q, rebuilt, nudged, shifted, conjugated, -p):
            assert (str(p) == str(y)) == (p == y)

    @given(printed_op_st, printed_op_st, st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
           unit_crat_st.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_diffop(self, L, M, pad, zdeg, dord, coef):
        rebuilt = DiffOp(
            [Polynomial([CRat(c.re, c.im) for c in t.coeffs]) for t in L.terms]
            + [Polynomial.zero()] * pad
        )
        nudged = L + DiffOp.from_term(Polynomial.monomial(zdeg) * coef, dord)
        shifted_d = DiffOp([Polynomial.zero(), *L.terms])
        shifted_z = DiffOp([Polynomial([0, *t.coeffs]) for t in L.terms])
        for y in (M, rebuilt, nudged, shifted_d, shifted_z, -L):
            assert (str(L) == str(y)) == (L == y)
