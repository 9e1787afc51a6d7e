"""Delta-distribution algebra, the Green-kernel assembly for the
raising-free operator family, the spectral shift values, the
Hilbert-Schmidt norm, and the trace of the Green integral operator, which
is the kernel's scalar.

The kernel formulas are printed as triple sums over an independent
prefactor index ``m`` in ``1..p`` and the binomial indices ``(k, l)`` of the
weight expansion, with the ``m``-dependent symbol factor ``eps0`` evaluated
at an explicit dual-variable point ``s_eval`` (the symbol never loses its
dual variable on its own; 0 is the reproducible default).  The summand
factors, and the binomial theorem closes the ``(k, l)`` part exactly:
``sum_{k,l} C(sigma-1,k) C(tau-1,l) a^(-l) = 2^(sigma-1) (1 + 1/a)^(tau-1)``.
So each kernel sum is that factor times a sum over ``m``.  ``_kernel_sums``
builds the factor once, as a Gaussian-integer power over an integer, and
closes both sums, the ``(m-1)!``-weighted one and the norm constant ``K_p``,
from integer moments of their ``m`` weights taken in one pass over ``m``.

The summation bound is ``p = sigma - rho`` unless :func:`green_kernel`'s
override sets it: the printed bound formally depends on an inner summation
index, and this is its largest value.  One :class:`GreenKernel` per report
carries the kernel, its norm constant ``kp``, the Hilbert-Schmidt norm and
the coincidence kernel.

Every kernel, distribution and norm value is exact: a float or complex input
raises ``TypeError``.  Floats appear only in :func:`eta_roots` and in the
level ``lambda`` of :func:`ssf`, whose step reads only its sign.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Iterable

from .algpoly import (
    CR_I,
    CR_ONE,
    CR_ZERO,
    CRat,
    DegenerateQuadratic,
    NonIntegerExponents,
    Polynomial,
    _Immutable,
    _Record,
    exact_count,
    exact_int,
    weight_args,
)

__all__ = [
    "Distribution",
    "SymbolCoeffs",
    "KernelScalars",
    "GreenKernel",
    "SSFValue",
    "ZeroEigenvalue",
    "pair",
    "monomial_times_delta",
    "symbol_coeffs",
    "eta_roots",
    "green_kernel",
    "weight_value_at_zero",
    "ssf",
    "heaviside",
    "trace_green",
]


class ZeroEigenvalue(ZeroDivisionError):
    """Coincidence kernels scale by 1/E; E = 0 is not invertible."""


class Distribution(_Immutable):
    """Finite sum ``sum_i coeff_i * delta^(order_i)(x - center_i)``.

    Orders are counts (``exact_count``); centers and coefficients are exact
    (``CRat.from_value``).  Terms sharing an order and a center are merged,
    zero coefficients are pruned, and the rest are sorted by order and the
    text of their center.  That is one canonical form per value, so equality
    and hashing read ``terms`` alone.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        kept = [
            (exact_count(order, "delta derivative order"), CRat.from_value(center),
             CRat.from_value(coeff))
            for order, center, coeff in terms
        ]
        if len(kept) > 1:  # one term has nothing to merge with or sort against
            merged: dict = {}
            for order, center, coeff in kept:
                key = (order, center)
                merged[key] = merged[key] + coeff if key in merged else coeff
            kept = [(order, center, coeff) for (order, center), coeff in merged.items()]
            kept.sort(key=lambda t: (t[0], str(t[1])))
        kept = tuple(t for t in kept if not t[2].is_zero())
        object.__setattr__(self, "terms", kept)

    @classmethod
    def delta(cls, order: int = 0, center=0, coeff=1) -> "Distribution":
        return cls([(order, center, coeff)])

    @classmethod
    def zero(cls) -> "Distribution":
        return cls(())

    def __add__(self, other: "Distribution") -> "Distribution":
        if not isinstance(other, Distribution):
            return NotImplemented
        return Distribution(self.terms + other.terms)

    def __mul__(self, scalar) -> "Distribution":
        scalar = CRat.from_value(scalar)
        return Distribution([(o, c, coeff * scalar) for o, c, coeff in self.terms])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for order, center, coeff in self.terms:
            d = "delta" if order == 0 else f"delta^({order})"
            at = "z" if center.is_zero() else f"z-({center})"
            chunks.append(f"({coeff}) {d}({at})")
        return " + ".join(chunks)

    def __repr__(self):
        return f"Distribution({str(self)!r})"

    def as_list(self) -> list[dict]:
        return [
            {"order": order, "center": str(center), "coeff": str(coeff)}
            for order, center, coeff in self.terms
        ]


def pair(d: Distribution, f: Polynomial) -> CRat:
    """Distributional pairing: ``sum coeff * (-1)^order * f^(order)(center)``.

    This is the oracle every delta identity is checked against; exact when
    both sides are exact.
    """
    total = CR_ZERO
    for order, center, coeff in d.terms:
        sign = CRat(-1 if order % 2 else 1)
        total = total + coeff * sign * f.derivative(order).eval(center)
    return total


def monomial_times_delta(n: int, m: int) -> Distribution:
    """The product ``w^n delta^(m)(w)`` as a distribution:

    0 for ``m < n`` and ``(-1)^n m!/(m-n)! delta^(m-n)(w)`` otherwise.
    """
    n, m = exact_count(n, "monomial degree"), exact_count(m, "delta order")
    if m < n:
        return Distribution.zero()
    coeff = CRat((-1) ** n * math.factorial(m) // math.factorial(m - n))
    return Distribution.delta(m - n, 0, coeff)


class KernelScalars(_Record):
    """The scalar data the kernel sums consume: spin integer n, singular
    location a, and the first-order coefficients (rho, sigma, tau), which
    are inputs (``green --rho/--sigma/--tau``), not derived from a spin."""

    n: int
    a: CRat
    rho: CRat
    sigma: CRat
    tau: CRat

    def __post_init__(self):
        object.__setattr__(self, "n", exact_int(self.n, "n"))
        for name in ("a", "rho", "sigma", "tau"):
            object.__setattr__(self, name, CRat.from_value(getattr(self, name)))

    def integer_exponents(self) -> tuple[int, int, int]:
        """(rho, sigma, tau) as positive integers, or NonIntegerExponents."""
        out = []
        for name, v in (("rho", self.rho), ("sigma", self.sigma), ("tau", self.tau)):
            if not v.is_integer() or v.triple[0] < 1:
                raise NonIntegerExponents(
                    f"{name} = {v} is not a positive integer; the weight table "
                    "and kernel sums are undefined"
                )
            out.append(v.triple[0])
        return tuple(out)


class SymbolCoeffs(_Record):
    """The three dual-variable symbol polynomials attached to one ``m``
    value of the transformed operator; ``eps2`` is ``-2 s^2`` always."""

    eps0: Polynomial
    eps1: Polynomial
    eps2: Polynomial


def symbol_coeffs(m_kl: int, n: int, scalars: KernelScalars) -> SymbolCoeffs:
    """Build (eps0, eps1, eps2) as polynomials in the dual variable s:

      eps0 = (m-1) [(1+a)(m-2-2is) + rho] + i s sigma + tau (m+1)
      eps1 = [2 (1+a)(m-1) + rho + tau] i s - s^2
             + (m+1)(sigma - (1+a) m) + n(n-1)/2
      eps2 = -2 s^2
    """
    one = CR_ONE
    a = scalars.a
    rho, sigma, tau = scalars.rho, scalars.sigma, scalars.tau
    m, n = CRat(exact_int(m_kl, "m_kl")), exact_int(n, "n")
    eps0 = Polynomial(
        [
            (m - one) * ((one + a) * (m - CRat(2)) + rho) + tau * (m + one),
            CR_I * (sigma - CRat(2) * (one + a) * (m - one)),
        ]
    )
    eps1 = Polynomial(
        [
            (m + one) * (sigma - (one + a) * m) + CRat(Fraction(n * (n - 1), 2)),
            CR_I * (CRat(2) * (one + a) * (m - one) + rho + tau),
            CRat(-1),
        ]
    )
    eps2 = Polynomial([0, 0, CRat(-2)])
    return SymbolCoeffs(eps0=eps0, eps1=eps1, eps2=eps2)


def eta_roots(sc: SymbolCoeffs, s) -> tuple[complex, complex]:
    """Roots ``(-eps1 +- sqrt(eps1^2 - 4 eps0 eps2)) / (2 eps0)`` of the
    symbol quadratic at the evaluation point ``s`` (principal branch), in
    floating point; ``s`` may be exact or a Python complex."""
    e0 = complex(sc.eps0.eval(s))
    e1 = complex(sc.eps1.eval(s))
    e2 = complex(sc.eps2.eval(s))
    if e0 == 0:
        raise DegenerateQuadratic(f"eps0 vanishes at s = {s}; eta roots undefined")
    root = cmath.sqrt(e1 * e1 - 4 * e0 * e2)
    return (-e1 + root) / (2 * e0), (-e1 - root) / (2 * e0)


# -- kernel assembly -----------------------------------------------------------


def _kernel_sums(exponents: tuple[int, int, int], a: CRat, s_eval: CRat,
                 p: int) -> tuple[CRat, CRat]:
    """The ``(m-1)!``-weighted kernel sum and ``K_p``, in one pass over ``m``,
    each closed on Gaussian integers and reduced once."""
    rho, sigma, tau = exponents
    a0, a1, ad = a.triple
    s0, s1, sd = s_eval.triple
    # 2^(sigma-1) ((1+a)/a)^(tau-1) with (1+a)/a = g/h for the Gaussian
    # integer g = (ad + a0 + a1 i)(a0 - a1 i) and h = |a0 + a1 i|^2: the
    # denominator ad of a cancels.  h = 0 (a = 0) divides only when tau > 1,
    # and then raises CRat's own error
    g = CRat.from_ints((ad + a0) * a0 + a1 * a1, -a1 * ad, 1) ** (tau - 1)
    b0, b1, _ = g.triple
    b0, b1 = b0 << (sigma - 1), b1 << (sigma - 1)
    den = (a0 * a0 + a1 * a1) ** (tau - 1) * ad * sd
    if not den:
        raise ZeroDivisionError("division by zero CRat")
    # eps0(m; s) = (1+a)[(m-1)(m-2) - 2is(m-1)] + rho(m-1) + tau(m+1) + is sigma
    # is linear in (m-1)(m-2), m-1 and 1, so a weighted m-sum needs only the
    # integer moments S0 = sum w, S1 = sum w (m-1), S2 = sum w (m-1)(m-2) of its
    # weights; the tau term's sum w (m+1) is S1 + 2 S0.  w0..w2 are the moments
    # of w_m = (-1)^(m-1) (m-1)!, v0..v2 those of v_m = (-1)^(m-1)
    w0 = w1 = w2 = v0 = v1 = v2 = 0
    w = v = 1
    for m in range(1, p + 1):
        c1, c2 = m - 1, (m - 1) * (m - 2)
        w0, w1, w2 = w0 + w, w1 + w * c1, w2 + w * c2
        v0, v1, v2 = v0 + v, v1 + v * c1, v2 + v * c2
        w, v = -w * m, -v

    def total(S0, S1, S2):
        # ad sd eps0-sum = (l0 + l1 i)(s0 + s1 i) + sd (c0 + c1 i), where
        # ad (1+a) = ad + a0 + a1 i
        l0, l1 = 2 * a1 * S1, ad * sigma * S0 - 2 * (ad + a0) * S1
        c0, c1 = (ad + a0) * S2 + ad * (rho * S1 + tau * (S1 + 2 * S0)), a1 * S2
        y0, y1 = l0 * s0 - l1 * s1 + sd * c0, l0 * s1 + l1 * s0 + sd * c1
        return CRat.from_ints(b0 * y0 - b1 * y1, b0 * y1 + b1 * y0, den)

    return total(w0, w1, w2), total(v0, v1, v2)


class GreenKernel(_Record):
    """The kernel data of one ``green``/``ssf`` report.

    The separated kernel is the truncated-exponential prefactor in the
    second variable times ``scalar * delta`` in the first; ``kp`` is the
    norm constant over the same bound, from which the Hilbert-Schmidt norm
    and the coincidence kernel derive.
    """

    scalars: KernelScalars
    p_bound: int
    prefactor: Polynomial
    scalar: CRat
    kp: CRat

    @functools.cached_property
    def omega_at_0(self) -> CRat:
        """``omega(0)``, the constant term of the reassembled weight
        polynomial; it vanishes exactly when ``rho > 1``, and ``a`` in
        ``{0, 1}`` is refused here."""
        s = self.scalars
        return weight_value_at_zero(s.rho, s.sigma, s.tau, s.a)

    def hs_norm_sq(self) -> Fraction:
        """``|K_p|^2 |omega(0)|^2``, exactly: one ``Fraction`` of the two
        triples."""
        a, b, d = self.kp.triple
        c, e, f = self.omega_at_0.triple
        return Fraction((a * a + b * b) * (c * c + e * e), (d * f) ** 2)

    def coincidence(self, E) -> Distribution:
        """Coincidence kernel ``G+-(E, w) = (K_p / E) delta(w)``.

        The delta term has even order, so both half-plane signs give this
        same kernel.
        """
        E = CRat.from_value(E)
        if E.is_zero():
            raise ZeroEigenvalue("coincidence kernel scales by 1/E; E = 0 is invalid")
        return Distribution.delta(0, 0, self.kp * (CR_ONE / E))


def _truncated_exponential(p: int) -> Polynomial:
    """``sum_{m=1}^{p} (i w)^(m-1) / (m-1)!``: the degree-(p-1) Taylor
    truncation of exp(i w), built as the Gaussian integers
    ``i^k (p-1)!/k!`` over ``(p-1)!``."""
    top = math.factorial(p - 1)
    table, term = [], top  # term = (p-1)!/k!
    for k in range(p):
        re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]  # i^k
        table.append((re * term, im * term))
        term //= k + 1
    return Polynomial.from_ints(table, top)


def green_kernel(scalars: KernelScalars, s_eval=CR_ZERO, *,
                 p_override: int = None) -> GreenKernel:
    """Assemble the separated kernel

    ``G(z, w) = [sum_{m=1}^{p} (i w)^(m-1)/(m-1)!]
                 * [sum_{m=1}^{p} sum_k sum_l C C a^(-l) (-1)^(m-1)
                    eps0(m; s_eval) (m-1)!] delta(z)``

    with the two ``m`` sums independent, exactly as printed, and the norm
    constant ``K_p``, the same sum without the ``(m-1)!`` weight.
    """
    exponents = scalars.integer_exponents()
    rho, sigma, _ = exponents
    bound = sigma - rho if p_override is None else exact_int(p_override, "p_override")
    if bound < 1:
        if p_override is not None:
            raise ValueError(f"p_override = {bound} must be at least 1")
        raise ValueError(
            f"summation bound p = {bound} is empty; the scalars give sigma - rho = "
            f"{sigma - rho} (override it to proceed)"
        )
    scalar, kp = _kernel_sums(exponents, scalars.a, CRat.from_value(s_eval), bound)
    return GreenKernel(
        scalars=scalars,
        p_bound=bound,
        prefactor=_truncated_exponential(bound),
        scalar=scalar,
        kp=kp,
    )


def weight_value_at_zero(rho, sigma, tau, a) -> CRat:
    """Constant term ``omega(0)`` of the weight, without building the table:
    ``h[0][0] = (-1)^(sigma+tau) a^(tau-1)`` when rho = 1, else 0.

    Validates its arguments exactly as ``distsol.weight_expansion`` does.
    """
    rho, sigma, tau, a = weight_args(rho, sigma, tau, a)
    if rho != 1:
        return CR_ZERO
    return CRat(-1 if (sigma + tau) % 2 else 1) * a ** (tau - 1)


def heaviside(lam: float) -> Fraction:
    """Symmetric step: 1 for positive, 0 for negative, 1/2 at zero; a NaN raises."""
    if lam > 0:
        return Fraction(1)
    if lam < 0:
        return Fraction(0)
    if lam == 0:
        return Fraction(1, 2)
    raise ValueError(f"lambda = {lam} has no sign; the step is undefined")


class SSFValue(_Record):
    """Spectral shift datum: the coincidence kernel and the step argument."""

    kernel: Distribution
    heaviside_arg: float

    @property
    def scaled(self) -> Distribution:
        """The shift value ``kernel * H(lambda)``."""
        return self.kernel * CRat(heaviside(self.heaviside_arg))

    def as_dict(self) -> dict:
        return {
            "lambda": self.heaviside_arg,
            "heaviside": str(heaviside(self.heaviside_arg)),
            "value": self.scaled.as_list(),
        }


def ssf(lam: float, G: Distribution) -> SSFValue:
    """Spectral shift of the perturbed pair at level ``lam``: the coincidence
    kernel scaled by the symmetric step; a NaN level raises ``ValueError``."""
    heaviside(lam)  # a NaN level has no sign
    return SSFValue(kernel=G, heaviside_arg=float(lam))


def trace_green(G: GreenKernel) -> CRat:
    """Trace of the Green integral operator under delta semantics: the
    kernel on the diagonal paired with the constant polynomial 1.  On the
    diagonal the prefactor is its constant term, 1 for every p >= 1, so the
    trace is the kernel's scalar."""
    return G.scalar
