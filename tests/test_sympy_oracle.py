"""An independent oracle: the operator product, the generator expansion,
the generator bracket and the Frobenius exponents, checked against sympy's
own differentiation and limits on seeded random inputs and a symbolic spin.
The module is skipped when sympy is absent (the ``test`` extra installs it).
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from heunlie.algpoly import CRat, DiffOp, HeunParams, Polynomial, commutator, op_compose
from heunlie.heunop import (
    INFINITY,
    build_expanded,
    indicial_exponents,
    uea_heun,
)
from heunlie.sl2rep import make_generators, uea_expand
from util import rand_crat, rand_params  # noqa: E402

z, t, w = sympy.symbols("z t w")


def to_sympy(x: CRat):
    return sympy.Rational(x.re.numerator, x.re.denominator) + sympy.I * sympy.Rational(
        x.im.numerator, x.im.denominator
    )


def poly_expr(p: Polynomial):
    return sympy.Add(*(to_sympy(c) * z**k for k, c in enumerate(p.coeffs)))


def apply_op(L: DiffOp, f):
    """``sum_k p_k(z) d^k f / dz^k`` with sympy's derivative."""
    return sympy.Add(*(poly_expr(p) * sympy.diff(f, z, k) for k, p in enumerate(L.terms)))


def same(a, b) -> bool:
    return sympy.expand(a - b) == 0


def rand_poly(rng, max_deg):
    return Polynomial([rand_crat(rng, complex_ok=True) for _ in range(rng.randint(0, max_deg + 1))])


def rand_op(rng):
    return DiffOp([rand_poly(rng, 3) for _ in range(rng.randint(1, 4))])


def complex_params(rng) -> HeunParams:
    while True:
        a = rand_crat(rng, complex_ok=True)
        if a not in (CRat(0), CRat(1)):
            return HeunParams(a, *(rand_crat(rng, complex_ok=True) for _ in range(6)))


def test_op_compose_is_the_product_of_applications():
    rng = random.Random(401)
    for _ in range(12):
        L, M = rand_op(rng), rand_op(rng)
        f = poly_expr(rand_poly(rng, 6))
        assert same(apply_op(op_compose(L, M), f), apply_op(L, apply_op(M, f)))


# the spin-j realization, letter by letter: Jp = z^2 D - 2jz, J0 = z D - j, Jm = D
def _generator(letter, j):
    if letter == "+":
        return lambda f: z**2 * sympy.diff(f, z) - 2 * j * z * f
    if letter == "0":
        return lambda f: z * sympy.diff(f, z) - j * f
    return lambda f: sympy.diff(f, z)


def test_generator_bracket_is_minus_two_j0_at_every_spin():
    # acceptance criterion 1 states [Jp, Jm] = +2 J0 and stays as stated;
    # with a symbolic j and a generic f the realized bracket is -2 J0 for
    # every spin, not only the sampled ones
    j = sympy.Symbol("j")
    f = sympy.Function("f")(z)
    jp, j0, jm = (_generator(letter, j) for letter in "+0-")
    assert same(jp(jm(f)) - jm(jp(f)), -2 * j0(f))
    assert not same(jp(jm(f)) - jm(jp(f)), 2 * j0(f))


@pytest.mark.parametrize("n2", range(-20, 21))
def test_library_bracket_is_minus_two_j0(n2):
    jp, j0, jm = make_generators(Fraction(n2, 2))
    bracket = commutator(jp, jm)
    assert bracket == j0 * CRat(-2)
    f = sympy.Function("f")(z)
    assert same(apply_op(bracket, f), -2 * _generator("0", sympy.Rational(n2, 2))(f))


def test_heun_expansion_is_the_words_applied_letter_by_letter():
    rng = random.Random(409)
    for n in (0, 1, 2, 5, 8):
        j = Fraction(n, 2)
        js = sympy.Rational(j.numerator, j.denominator)
        for p in (rand_params(rng, constrained=False), complex_params(rng)):
            expr = uea_heun(j, p)
            f = poly_expr(rand_poly(rng, 6))
            expected = to_sympy(expr.constant) * f
            for coeff, word in expr.words:
                g = f
                for letter in reversed(word):  # the rightmost letter acts first
                    g = _generator(letter, js)(g)
                expected += to_sympy(coeff) * g
            assert same(apply_op(uea_expand(expr, j), f), expected)


def _limits(L: DiffOp, point):
    """``pc = lim (z - z0) p1/p2`` and ``qc = lim (z - z0)^2 p0/p2``; at
    infinity the same limits of the equation written in ``w = 1/z``."""
    P = poly_expr(L.coeff(1)) / poly_expr(L.coeff(2))
    Q = poly_expr(L.coeff(0)) / poly_expr(L.coeff(2))
    if point is INFINITY:
        # y_zz = w^4 y_ww + 2 w^3 y_w and y_z = -w^2 y_w, divided by w^4
        P_w, Q_w = 2 / w - P.subs(z, 1 / w) / w**2, Q.subs(z, 1 / w) / w**4
        return sympy.limit(w * P_w, w, 0), sympy.limit(w**2 * Q_w, w, 0)
    z0 = to_sympy(point)
    near = {z: z0 + t}
    return sympy.limit(t * P.subs(near), t, 0), sympy.limit(t**2 * Q.subs(near), t, 0)


def test_indicial_exponents_satisfy_vieta_with_the_limits():
    rng = random.Random(419)
    for p in (rand_params(rng, constrained=False), complex_params(rng)):
        L = build_expanded(p)
        for point in (CRat(0), CRat(1), p.a, INFINITY):
            pc, qc = _limits(L, point)
            e1, e2 = indicial_exponents(L, point)
            total, product = e1 + e2, e1 * e2
            assert total.is_exact() and product.is_exact()
            assert same(to_sympy(total.exact_value()), 1 - pc)
            assert same(to_sympy(product.exact_value()), qc)
