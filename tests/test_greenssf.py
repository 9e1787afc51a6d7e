import cmath
import math
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
    DegenerateQuadratic,
    NonIntegerExponents,
    Polynomial,
)
from heunlie.distsol import weight_expansion
from heunlie.greenssf import (
    GreenKernel,
    Distribution,
    KernelScalars,
    ZeroEigenvalue,
    eta_roots,
    green_coincidence,
    green_kernel,
    heaviside,
    hs_norm_sq,
    kp_constant,
    monomial_times_delta,
    pair,
    ssf,
    symbol_coeffs,
    trace_green,
    _kernel_sums,
    _truncated_exponential,
)
from util import (
    crat_kernel_sums,
    crat_truncated_exponential,
    rand_crat,
    rand_fraction,
    rand_poly,
    reference_truncated_exponential,
)

SCAL = KernelScalars(n=1, a=2, rho=1, sigma=3, tau=2)


class TestDistribution:
    def test_normalization_merges_and_prunes(self):
        d = Distribution([(1, 0, CRat(2)), (1, 0, CRat(-2)), (0, 0, CRat(3))])
        assert d == Distribution.delta(0, 0, 3)
        assert Distribution([(2, 0, CRat(0))]) == Distribution.zero()

    def test_linear_structure(self):
        d1 = Distribution.delta(0, 0, 2)
        d2 = Distribution.delta(1, 0, 3)
        s = d1 + d2
        assert s.terms == ((0, CR_ZERO, CRat(2)), (1, CR_ZERO, CRat(3)))
        assert (s * CRat(2)).terms == ((0, CR_ZERO, CRat(4)), (1, CR_ZERO, CRat(6)))

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            Distribution([(-1, 0, 1)])

    @pytest.mark.parametrize("make", [lambda: Distribution.delta(True),
                                      lambda: Distribution([(False, 0, 1)])])
    def test_rejects_bool_orders(self, make):
        with pytest.raises(TypeError,
                           match="^delta derivative order must be an exact integer, got bool$"):
            make()


class TestPair:
    def test_plain_delta(self):
        f = Polynomial([1, 0, 1])  # z^2 + 1
        assert pair(Distribution.delta(0), f) == CR_ONE

    def test_first_derivative(self):
        assert pair(Distribution.delta(1), Polynomial.variable()) == CRat(-1)

    def test_shifted_second_derivative(self):
        d = Distribution.delta(2, CRat(1))
        assert pair(d, Polynomial.monomial(2)) == CRat(2)

    def test_linearity(self):
        rng = random.Random(137)
        for _ in range(20):
            f = rand_poly(rng, 5)
            d1 = Distribution.delta(rng.randint(0, 3), 0, rand_crat(rng))
            d2 = Distribution.delta(rng.randint(0, 3), 0, rand_crat(rng))
            assert pair(d1 + d2, f) == pair(d1, f) + pair(d2, f)


class TestMonomialTimesDelta:
    def test_examples(self):
        assert monomial_times_delta(1, 1) == Distribution.delta(0, 0, -1)
        assert monomial_times_delta(2, 1) == Distribution.zero()
        for m in range(4):
            assert monomial_times_delta(0, m) == Distribution.delta(m)

    def test_pairing_oracle_small(self):
        rng = random.Random(139)
        for n in range(0, 9):
            for m in range(0, 9):
                d = monomial_times_delta(n, m)
                for _ in range(3):
                    phi = rand_poly(rng, 6)
                    lhs = pair(d, phi)
                    shifted = Polynomial.monomial(n) * phi
                    rhs = CRat(-1 if m % 2 else 1) * shifted.derivative(m).eval(CR_ZERO)
                    assert lhs == rhs


class TestSymbolCoeffs:
    def test_eps2_is_minus_two_s_squared(self):
        for m in (1, 2, 5):
            sc = symbol_coeffs(m, 1, SCAL)
            assert sc.eps2 == Polynomial([0, 0, -2])
            assert sc.eps2.eval(CR_ONE) == CRat(-2)

    def test_eps0_at_unit_m_and_zero_s(self):
        sc = symbol_coeffs(1, SCAL.n, SCAL)
        assert sc.eps0.eval(CR_ZERO) == CRat(2) * SCAL.tau

    def test_eps1_at_unit_m_and_zero_s(self):
        n = SCAL.n
        sc = symbol_coeffs(1, n, SCAL)
        expected = CRat(2) * (SCAL.sigma - (CR_ONE + SCAL.a)) + CRat(
            Fraction(n * (n - 1), 2)
        )
        assert sc.eps1.eval(CR_ZERO) == expected

    def test_eps0_slope_structure(self):
        sc = symbol_coeffs(3, 2, SCAL)
        # d eps0 / ds = i (sigma - 2 (1+a)(m-1))
        assert sc.eps0.coeff(1) == CR_I * (SCAL.sigma - CRat(2) * (CR_ONE + SCAL.a) * CRat(2))


class TestEtaRoots:
    def test_roots_satisfy_quadratic(self):
        rng = random.Random(149)
        for _ in range(100):
            m = rng.randint(1, 5)
            sc = symbol_coeffs(m, rng.randint(-2, 3), SCAL)
            s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            try:
                r1, r2 = eta_roots(sc, s)
            except DegenerateQuadratic:
                continue
            e0 = complex(sc.eps0.eval(s))
            e1 = complex(sc.eps1.eval(s))
            e2 = complex(sc.eps2.eval(s))
            scale = max(1.0, abs(e0), abs(e1), abs(e2))
            for r in (r1, r2):
                assert abs(e0 * r * r + e1 * r + e2) <= 1e-10 * scale * max(1.0, abs(r)) ** 2

    def test_zero_s_has_zero_root(self):
        sc = symbol_coeffs(2, 1, SCAL)
        r1, r2 = eta_roots(sc, CR_ZERO)
        assert min(abs(r1), abs(r2)) == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_when_eps1_vanishes(self):
        from heunlie.greenssf import SymbolCoeffs

        sc = SymbolCoeffs(
            eps0=Polynomial([2]),
            eps1=Polynomial.zero(),
            eps2=Polynomial([0, 0, -2]),
        )
        r1, r2 = eta_roots(sc, 1.0)
        assert r1 == pytest.approx(-r2)
        assert r1 == pytest.approx(cmath.sqrt(complex(0, 0) - 4 * 2 * (-2)) / 4)

    def test_degenerate_quadratic(self):
        from heunlie.greenssf import SymbolCoeffs

        sc = SymbolCoeffs(
            eps0=Polynomial([0, 1]),  # vanishes at s = 0
            eps1=Polynomial([1]),
            eps2=Polynomial([0, 0, -2]),
        )
        with pytest.raises(DegenerateQuadratic):
            eta_roots(sc, 0.0)


class TestGreenKernel:
    def test_prefactor_is_truncated_exponential(self):
        # the running product against i^(m-1) / (m-1)! built term by term
        for p_bound in range(1, 41):
            gk = green_kernel(scalars=SCAL, p_override=p_bound)
            assert gk.prefactor.degree == p_bound - 1 or p_bound == 1
            assert gk.prefactor.coeffs == reference_truncated_exponential(p_bound).coeffs
            assert gk.prefactor.eval(CR_ZERO) == CR_ONE

    def test_prefactor_default_bound(self):
        gk = green_kernel(scalars=SCAL)
        assert gk.p_bound == 2  # sigma - rho
        assert gk.prefactor == Polynomial([CR_ONE, CR_I])

    def test_kernel_coefficient_against_double_loop_oracle(self):
        scal = KernelScalars(n=1, a=3, rho=1, sigma=2, tau=2)
        gk = green_kernel(scalars=scal, p_override=3)
        total = CR_ZERO
        for m in range(1, 4):
            for k in range(0, 2):
                for l in range(0, 2):
                    h = CRat(math.comb(1, k) * math.comb(1, l))
                    eps0 = (
                        (CRat(m) - CR_ONE)
                        * ((CR_ONE + scal.a) * (CRat(m) - CRat(2)) + scal.rho)
                        + scal.tau * (CRat(m) + CR_ONE)
                    )
                    total = total + h * scal.a ** (-l) * CRat((-1) ** (m - 1)) * eps0 * CRat(
                        math.factorial(m - 1)
                    )
        assert gk.scalar == total

    def test_integer_guard(self):
        # the raising-free expansion's rho = 3(1-n)/2 at n = 0 and n = 1
        for rho in (Fraction(3, 2), 0):
            with pytest.raises(NonIntegerExponents, match=f"^rho = {rho} is not a positive"):
                green_kernel(KernelScalars(n=0, a=2, rho=rho, sigma=3, tau=2))

    def test_empty_bound_needs_override(self):
        scal = KernelScalars(n=0, a=2, rho=1, sigma=1, tau=1)
        with pytest.raises(ValueError):
            green_kernel(scalars=scal)
        gk = green_kernel(scalars=scal, p_override=1)
        assert gk.prefactor == Polynomial.one()


class TestKpConstant:
    def test_single_cell_collapse(self):
        scal = KernelScalars(n=0, a=2, rho=1, sigma=1, tau=1)
        kp = green_kernel(scalars=scal, p_override=3).kp
        total = CR_ZERO
        for m in (1, 2, 3):
            sc = symbol_coeffs(m, 0, scal)
            total = total + CRat((-1) ** (m - 1)) * sc.eps0.eval(CR_ZERO)
        assert kp == total

    def test_p_one_is_plain_sum(self):
        scal = KernelScalars(n=2, a=2, rho=1, sigma=3, tau=2)
        kp = green_kernel(scalars=scal, p_override=1).kp
        total = CR_ZERO
        sc = symbol_coeffs(1, 2, scal)
        eps0 = sc.eps0.eval(CR_ZERO)
        for k in range(3):
            for l in range(2):
                total = total + CRat(math.comb(2, k) * math.comb(1, l)) * scal.a ** (-l) * eps0
        assert kp == total

    def test_negation_linearity(self):
        # negating every eps0 negates the sum: realized by comparing against
        # the explicitly negated cell sum
        kp = green_kernel(scalars=SCAL, p_override=2).kp
        neg = CR_ZERO
        for m in (1, 2):
            sc = symbol_coeffs(m, SCAL.n, SCAL)
            eps0 = -sc.eps0.eval(CR_ZERO)
            for k in range(3):
                for l in range(2):
                    neg = neg + CRat(math.comb(2, k) * math.comb(1, l)) * SCAL.a ** (-l) * CRat(
                        (-1) ** (m - 1)
                    ) * eps0
        assert neg == -kp


class TestGreenCoincidence:
    def test_inverse_eigenvalue_scaling(self):
        g1 = green_coincidence(scalars=SCAL, E=CRat(1))
        g2 = green_coincidence(scalars=SCAL, E=CRat(2))
        assert g1 == g2 * CRat(2)

    def test_zero_eigenvalue(self):
        with pytest.raises(ZeroEigenvalue):
            green_coincidence(scalars=SCAL, E=CRat(0))
        # the eigenvalue is checked before the kernel sum: an empty bound
        # does not mask it
        empty = KernelScalars(n=0, a=2, rho=1, sigma=1, tau=1)
        with pytest.raises(ZeroEigenvalue):
            green_coincidence(scalars=empty, E=CRat(0))

    def test_matches_kp_over_E(self):
        kp = kp_constant(scalars=SCAL)
        g = green_coincidence(scalars=SCAL, E=CRat(5))
        assert g == Distribution.delta(0, 0, kp / CRat(5))


class TestHSNorm:
    def test_zero_when_rho_exceeds_one(self):
        scal = KernelScalars(n=1, a=2, rho=3, sigma=5, tau=2)
        assert weight_expansion(3, 5, 2, CRat(2)).value_at_zero() == CR_ZERO
        assert hs_norm_sq(scalars=scal) == 0

    def test_unit_weight_case(self):
        scal = KernelScalars(n=0, a=2, rho=1, sigma=1, tau=1)
        gk = green_kernel(scalars=scal, p_override=2)
        assert gk.hs_norm_sq() == gk.kp.abs2()

    def test_nonnegative_and_zero_iff(self):
        rng = random.Random(151)
        for _ in range(10):
            sigma = rng.randint(1, 4)
            tau = rng.randint(1, 3)
            rho = rng.randint(1, max(1, sigma - 1)) if sigma > 1 else 1
            scal = KernelScalars(
                n=rng.randint(-2, 3), a=rand_fraction(rng, nonzero=True) or 3,
                rho=rho, sigma=sigma, tau=tau,
            )
            gk = green_kernel(scalars=scal, p_override=3)
            try:
                norm = gk.hs_norm_sq()
            except ValueError:
                continue
            kp = gk.kp
            omega0 = weight_expansion(rho, sigma, tau, scal.a).value_at_zero()
            assert norm >= 0
            assert (norm == 0) == (kp == CR_ZERO or omega0 == CR_ZERO)


class TestSSF:
    def test_negative_level_kills_kernel(self):
        g = green_coincidence(scalars=SCAL, E=CRat(1))
        assert ssf(-3.0, g).scaled == Distribution.zero()

    def test_positive_level_preserves_kernel(self):
        g = green_coincidence(scalars=SCAL, E=CRat(1))
        assert ssf(3.0, g).scaled == g

    def test_zero_level_halves(self):
        g = green_coincidence(scalars=SCAL, E=CRat(1))
        assert ssf(0.0, g).scaled == g * CRat(Fraction(1, 2))

    def test_piecewise_constant(self):
        g = green_coincidence(scalars=SCAL, E=CRat(1))
        positives = {ssf(lam, g).scaled for lam in (0.1, 1.0, 7.5, 1e6)}
        negatives = {ssf(lam, g).scaled for lam in (-0.1, -2.0, -1e6)}
        assert positives == {g}
        assert negatives == {Distribution.zero()}

    @pytest.mark.parametrize("lam, step", [
        (2.0, Fraction(1)), (-2.0, Fraction(0)),
        (math.inf, Fraction(1)), (-math.inf, Fraction(0)),
        (0.0, Fraction(1, 2)), (-0.0, Fraction(1, 2)),
        (math.nan, None), (-math.nan, None),
    ], ids=["2.0", "-2.0", "inf", "-inf", "0.0", "-0.0", "nan", "-nan"])
    def test_heaviside_values(self, lam, step):
        # the infinities and both zeros have a sign or a midpoint; a NaN has
        # neither, and is refused rather than read as the jump
        g = green_coincidence(scalars=SCAL, E=CRat(1))
        if step is None:
            for refused in (lambda: heaviside(lam), lambda: ssf(lam, g)):
                with pytest.raises(ValueError,
                                   match="^lambda = nan has no sign; the step is undefined$"):
                    refused()
            return
        assert heaviside(lam) == step and type(heaviside(lam)) is Fraction
        value = ssf(lam, g)
        assert value.scaled == g * CRat(step)
        assert value.as_dict()["heaviside"] == str(step)


class TestTrace:
    def test_scalar_delta(self):
        assert pair(Distribution.delta(0, 0, CRat(7)), Polynomial.one()) == CRat(7)
        assert pair(Distribution.zero(), Polynomial.one()) == CR_ZERO

    def test_kernel_trace_matches_scalar(self):
        gk = green_kernel(scalars=SCAL)
        assert trace_green(gk) == gk.scalar

    def test_linearity(self):
        rng, one = random.Random(157), Polynomial.one()
        for _ in range(10):
            d1 = Distribution.delta(0, 0, rand_crat(rng))
            d2 = Distribution.delta(0, 0, rand_crat(rng))
            assert pair(d1 + d2, one) == pair(d1, one) + pair(d2, one)

    def test_higher_order_terms_do_not_contribute(self):
        d = Distribution([(0, 0, CRat(4)), (2, 0, CRat(9))])
        assert pair(d, Polynomial.one()) == CRat(4)


EMPTY_BOUND = ("summation bound p = 0 is empty; the scalars give sigma - rho = 0 "
               "(override it to proceed)")
A_REFUSED = "a must avoid 0 and 1, got {}"
ZERO_E = "coincidence kernel scales by 1/E; E = 0 is invalid"
ONE_OFFS = {
    "kp_constant": lambda scal, E: kp_constant(scalars=scal),
    "hs_norm_sq": lambda scal, E: hs_norm_sq(scalars=scal),
    "green_coincidence": lambda scal, E: green_coincidence(scalars=scal, E=E),
}
# green_kernel alone takes the bound override; its kernel's methods check
# after the kernel is assembled
ON_THE_KERNEL = {
    "green_kernel": lambda scal, E, **kw: green_kernel(scalars=scal, **kw),
    "GreenKernel.hs_norm_sq": lambda scal, E, **kw: green_kernel(scal, **kw).hs_norm_sq(),
    "GreenKernel.coincidence": lambda scal, E, **kw: green_kernel(scal, **kw).coincidence(E),
}
KERNEL_FUNCTIONS = {**ONE_OFFS, **ON_THE_KERNEL}
# rho = tau = 2: sigma = 2 leaves the default bound empty, sigma = 4 gives 2
BOUNDS = {"empty": (2, {}), "default": (4, {}), "overridden": (2, {"p_override": 3})}
FIRST_EXCEPTIONS = [
    # the one-offs, over the default bound
    *[("hs_norm_sq", a, bound, 1, ValueError, A_REFUSED.format(a))
      for a in (0, 1) for bound in ("empty", "default")],
    *[(fn, 0, "default", 1, ZeroDivisionError, "division by zero CRat")
      for fn in ("green_kernel", "kp_constant", "green_coincidence")],
    *[(fn, a, "empty", 1, ValueError, EMPTY_BOUND)
      for a in (0, 1) for fn in ("green_kernel", "kp_constant", "green_coincidence")],
    *[(fn, 1, "default", 1, None, None)
      for fn in ("green_kernel", "kp_constant", "green_coincidence")],
    *[("green_coincidence", a, bound, 0, ZeroEigenvalue, ZERO_E)
      for a in (0, 1) for bound in ("empty", "default")],
    # green_kernel and its kernel's methods, with the bound overridden
    ("green_kernel", 0, "overridden", 1, ZeroDivisionError, "division by zero CRat"),
    ("green_kernel", 1, "overridden", 1, None, None),
    *[(fn, a, "empty", E, ValueError, EMPTY_BOUND)
      for a in (0, 1) for fn, E in (("GreenKernel.hs_norm_sq", 1),
                                    ("GreenKernel.coincidence", 0))],
    *[(fn, 0, bound, E, ZeroDivisionError, "division by zero CRat")
      for bound in ("default", "overridden")
      for fn, E in (("GreenKernel.hs_norm_sq", 1), ("GreenKernel.coincidence", 0))],
    *[(fn, 1, bound, E, exc, message)
      for bound in ("default", "overridden")
      for fn, E, exc, message in (
          ("GreenKernel.hs_norm_sq", 1, ValueError, A_REFUSED.format(1)),
          ("GreenKernel.coincidence", 0, ZeroEigenvalue, ZERO_E),
          ("GreenKernel.coincidence", 1, None, None),
      )],
]


@pytest.mark.parametrize("fn, a, bound, E, exc, message", FIRST_EXCEPTIONS)
def test_first_exception(fn, a, bound, E, exc, message):
    sigma, kwargs = BOUNDS[bound]
    scal = KernelScalars(n=1, a=a, rho=2, sigma=sigma, tau=2)
    if exc is None:
        KERNEL_FUNCTIONS[fn](scal, CRat(E), **kwargs)
        return
    with pytest.raises(exc) as info:
        KERNEL_FUNCTIONS[fn](scal, CRat(E), **kwargs)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("fn", list(KERNEL_FUNCTIONS))
def test_first_exception_non_integer_exponent(fn):
    # the exponents are checked first, with integer_exponents' own message
    scal = KernelScalars(n=1, a=1, rho=Fraction(1, 2), sigma=2, tau=2)
    with pytest.raises(NonIntegerExponents) as info:
        KERNEL_FUNCTIONS[fn](scal, CRat(1))
    assert str(info.value) == (
        "rho = 1/2 is not a positive integer; the weight table and kernel sums are undefined"
    )


# -- the integer kernel data against the CRat reference ------------------------
# denominators with large primes, so that nothing cancels by accident
DENOMINATORS = (1, 2, 3, 12, 10**9 + 7, 2**61 - 1, (2**31 - 1) * (10**9 + 9))
part_st = st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(DENOMINATORS))
complex_st = st.builds(CRat, part_st, st.one_of(st.just(0), part_st))
a_st = complex_st.filter(lambda a: a != 0 and a != 1)


@given(a=a_st, s_eval=complex_st, rho=st.integers(1, 4), sigma=st.integers(1, 17),
       tau=st.integers(1, 13), p=st.integers(1, 20))
@example(a=CRat(-1), s_eval=CR_ZERO, rho=1, sigma=1, tau=2, p=1)  # 1 + a = 0
@example(a=CRat(0, 1), s_eval=CRat(0, -1), rho=3, sigma=17, tau=13, p=20)
@settings(max_examples=300, deadline=None)
def test_kernel_data_match_the_crat_reference(a, s_eval, rho, sigma, tau, p):
    got = _kernel_sums((rho, sigma, tau), a, s_eval, p)
    assert got == crat_kernel_sums((rho, sigma, tau), a, s_eval, p)
    assert all(type(x) is CRat for x in got)
    assert _truncated_exponential(p) == crat_truncated_exponential(p)


@pytest.mark.parametrize("tau", [1, 2, 5])
@pytest.mark.parametrize("s_eval", [CR_ZERO, CRat(Fraction(1, 3), -2)])
def test_kernel_sums_at_a_zero(tau, s_eval):
    # at a = 0 the binomial factor divides by a only when tau > 1
    args = ((2, 5, tau), CR_ZERO, s_eval, 3)
    if tau == 1:
        assert _kernel_sums(*args) == crat_kernel_sums(*args)
        return
    for sums in (_kernel_sums, crat_kernel_sums):
        with pytest.raises(ZeroDivisionError) as info:
            sums(*args)
        assert str(info.value) == "division by zero CRat"


@given(kp=complex_st, a=a_st, rho=st.integers(1, 2), sigma=st.integers(1, 4),
       tau=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_hs_norm_is_the_product_of_the_two_moduli(kp, a, rho, sigma, tau):
    scalars = KernelScalars(1, a, rho, sigma, tau)
    kernel = GreenKernel(scalars, 1, Polynomial.one(), CR_ONE, kp)
    assert kernel.hs_norm_sq() == kp.abs2() * kernel.omega_at_0.abs2()
