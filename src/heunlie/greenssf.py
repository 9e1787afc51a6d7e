"""Delta-distribution algebra, the Green-kernel assembly for the
raising-free operator family, the spectral shift values, the
Hilbert-Schmidt norm, and the trace of the Green integral operator.

The kernel formulas are printed as triple sums over an independent
prefactor index ``m`` in ``1..p`` and the binomial indices ``(k, l)`` of the
weight expansion, with the ``m``-dependent symbol factor ``eps0`` evaluated
at an explicit dual-variable point ``s_eval`` (the symbol never loses its
dual variable on its own; 0 is the reproducible default).  The summand
factors, and the binomial theorem closes the ``(k, l)`` part exactly:
``sum_{k,l} C(sigma-1,k) C(tau-1,l) a^(-l) = 2^(sigma-1) (1 + 1/a)^(tau-1)``.
So each kernel sum is that factor times a sum over ``m``, which
``_kernel_sum`` closes from integer moments of the ``m`` weights.

The summation bound is ``p = sigma - rho`` unless overridden: the printed
bound formally depends on an inner summation index, and this is its largest
value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algpoly import CR_I, CR_ONE, CR_ZERO, CRat, Polynomial
from .distsol import NonIntegerExponents, Scalar, _scalar, weight_value_at_zero
from .heunop import HeunParams, expanded_es_coeffs

__all__ = [
    "Distribution",
    "SymbolCoeffs",
    "KernelScalars",
    "GreenKernel",
    "SSFValue",
    "DegenerateQuadratic",
    "ZeroEigenvalue",
    "pair",
    "monomial_times_delta",
    "symbol_coeffs",
    "eta_roots",
    "green_kernel",
    "green_coincidence",
    "kp_constant",
    "hs_norm_sq",
    "ssf",
    "heaviside",
    "trace_green",
    "ETA_RESIDUAL_TOL",
]

#: relative residual bound for the factorization roots
ETA_RESIDUAL_TOL = 1e-10


class DegenerateQuadratic(ArithmeticError):
    """The quadratic's leading symbol coefficient vanished at the evaluation point."""


class ZeroEigenvalue(ZeroDivisionError):
    """Coincidence kernels scale by 1/E; E = 0 is not invertible."""


def _is_zero(x: Scalar) -> bool:
    return x.is_zero() if isinstance(x, CRat) else x == 0


class Distribution:
    """Finite sum ``sum_i coeff_i * delta^(order_i)(x - center_i)``.

    Terms sharing a center and order are merged and zero coefficients are
    pruned, so equality of normalized term tuples is semantic equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):
        merged: dict = {}
        order_keys: list = []
        for order, center, coeff in terms:
            if not isinstance(order, int) or order < 0:
                raise ValueError(f"delta derivative order must be an integer >= 0, got {order!r}")
            center = _scalar(center)
            coeff = _scalar(coeff)
            key = (order, str(center) if isinstance(center, CRat) else repr(center))
            if key in merged:
                old_center, old_coeff = merged[key]
                merged[key] = (old_center, old_coeff + coeff)
            else:
                merged[key] = (center, coeff)
                order_keys.append(key)
        kept = []
        for key in sorted(order_keys, key=lambda k: (k[0], k[1])):
            center, coeff = merged[key]
            if not _is_zero(coeff):
                kept.append((key[0], center, coeff))
        object.__setattr__(self, "terms", tuple(kept))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Distribution is immutable")

    @classmethod
    def delta(cls, order: int = 0, center=0, coeff=1) -> "Distribution":
        return cls([(order, center, coeff)])

    @classmethod
    def zero(cls) -> "Distribution":
        return cls(())

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, order: int, center=0) -> Scalar:
        center = _scalar(center)
        for o, c, coeff in self.terms:
            if o == order and _same_center(c, center):
                return coeff
        return CR_ZERO

    def __add__(self, other: "Distribution") -> "Distribution":
        if not isinstance(other, Distribution):
            return NotImplemented
        return Distribution(self.terms + other.terms)

    def __mul__(self, scalar) -> "Distribution":
        scalar = _scalar(scalar)
        return Distribution([(o, c, coeff * scalar) for o, c, coeff in self.terms])

    __rmul__ = __mul__

    def __neg__(self) -> "Distribution":
        return self * CRat(-1)

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
            at = "z" if _is_zero(center) else f"z-({center})"
            chunks.append(f"({coeff}) {d}({at})")
        return " + ".join(chunks)

    def __repr__(self):
        return f"Distribution({str(self)!r})"

    def as_list(self) -> list:
        out = []
        for order, center, coeff in self.terms:
            out.append(
                {
                    "order": order,
                    "center": _scalar_json(center),
                    "coeff": _scalar_json(coeff),
                }
            )
        return out


def _same_center(x: Scalar, y: Scalar) -> bool:
    if isinstance(x, CRat) and isinstance(y, CRat):
        return x == y
    return complex(x) == complex(y)


def _scalar_json(x: Scalar):
    if isinstance(x, CRat):
        return str(x)
    return [x.real, x.imag]


def pair(d: Distribution, f: Polynomial) -> Scalar:
    """Distributional pairing: ``sum coeff * (-1)^order * f^(order)(center)``.

    This is the oracle every delta identity is checked against; exact when
    both sides are exact.
    """
    total: Scalar = CR_ZERO
    for order, center, coeff in d.terms:
        sign = CRat(-1 if order % 2 else 1)
        total = total + coeff * sign * f.derivative(order).eval(center)
    return total


def monomial_times_delta(n: int, m: int) -> Distribution:
    """The product ``w^n delta^(m)(w)`` as a distribution:

    0 for ``m < n`` and ``(-1)^n m!/(m-n)! delta^(m-n)(w)`` otherwise.
    """
    if n < 0 or m < 0:
        raise ValueError("monomial degree and delta order must be nonnegative")
    if m < n:
        return Distribution.zero()
    coeff = CRat((-1) ** n * math.factorial(m) // math.factorial(m - n))
    return Distribution.delta(m - n, 0, coeff)


@dataclass(frozen=True)
class KernelScalars:
    """The scalar data the kernel sums consume: spin integer n, singular
    location a, and the first-order coefficients (rho, sigma, tau) of the
    raising-free operator."""

    n: int
    a: CRat
    rho: CRat
    sigma: CRat
    tau: CRat

    @classmethod
    def from_heun(cls, n: int, p: HeunParams) -> "KernelScalars":
        got = expanded_es_coeffs(n, p)
        return cls(n=n, a=p.a, rho=got.rho, sigma=got.sigma, tau=got.tau)

    @classmethod
    def direct(cls, n: int, a, rho, sigma, tau) -> "KernelScalars":
        return cls(
            n=int(n),
            a=CRat.from_value(a),
            rho=CRat.from_value(rho),
            sigma=CRat.from_value(sigma),
            tau=CRat.from_value(tau),
        )

    def integer_exponents(self) -> tuple[int, int, int]:
        """(rho, sigma, tau) as positive integers, or NonIntegerExponents."""
        out = []
        for name, v in (("rho", self.rho), ("sigma", self.sigma), ("tau", self.tau)):
            if not v.is_integer() or v.re < 1:
                raise NonIntegerExponents(
                    f"{name} = {v} is not a positive integer; the weight table "
                    "and kernel sums are undefined"
                )
            out.append(int(v.re))
        return tuple(out)

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "a": str(self.a),
            "rho": str(self.rho),
            "sigma": str(self.sigma),
            "tau": str(self.tau),
        }


@dataclass(frozen=True)
class SymbolCoeffs:
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
    m = CRat(m_kl)
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
    symbol quadratic at the evaluation point ``s`` (principal branch)."""
    e0 = complex(_scalar(sc.eps0.eval(_scalar(s))))
    e1 = complex(_scalar(sc.eps1.eval(_scalar(s))))
    e2 = complex(_scalar(sc.eps2.eval(_scalar(s))))
    if e0 == 0:
        raise DegenerateQuadratic(f"eps0 vanishes at s = {s}; eta roots undefined")
    root = cmath.sqrt(e1 * e1 - 4 * e0 * e2)
    return (-e1 + root) / (2 * e0), (-e1 - root) / (2 * e0)


# -- kernel assembly -----------------------------------------------------------


def _resolve_scalars(n, p, scalars) -> KernelScalars:
    if scalars is not None:
        return scalars
    if p is None:
        raise TypeError("either HeunParams or explicit KernelScalars are required")
    return KernelScalars.from_heun(n, p)


def _p_bound(sigma: int, rho: int, p_override) -> int:
    p = sigma - rho if p_override is None else int(p_override)
    if p < 1:
        raise ValueError(
            f"summation bound p = {p} is empty; the scalars give sigma - rho = "
            f"{sigma - rho} (override it to proceed)"
        )
    return p


def _kernel_sum(scalars: KernelScalars, s_eval, p: int, with_factorial: bool) -> Scalar:
    rho, sigma, tau = scalars.integer_exponents()
    s_eval = _scalar(s_eval)
    a = scalars.a
    one_a = CR_ONE + a
    # 2^(sigma-1) (1 + 1/a)^(tau-1), written to divide by a only when tau > 1
    binomials = CRat(2 ** (sigma - 1)) * one_a ** (tau - 1) * a ** (1 - tau)
    # eps0(m; s) = (1+a)[(m-1)(m-2) - 2is(m-1)] + rho(m-1) + tau(m+1) + is sigma
    # is linear in (m-1)(m-2), m-1 and 1, so the weighted m-sum needs only the
    # integer moments S0 = sum w, S1 = sum w (m-1), S2 = sum w (m-1)(m-2) of
    # w_m = (-1)^(m-1) [(m-1)!]; the tau term's sum w (m+1) is S1 + 2 S0
    s0 = s1 = s2 = 0
    w = 1
    for m in range(1, p + 1):
        s0 += w
        s1 += w * (m - 1)
        s2 += w * (m - 1) * (m - 2)
        w = -w * m if with_factorial else -w
    constant = one_a * s2 + (rho * s1 + tau * (s1 + 2 * s0))
    linear = CR_I * (sigma * s0 - one_a * (2 * s1))
    return binomials * (linear * s_eval + constant)


def kp_constant(n: int = None, p: HeunParams = None, *, scalars: KernelScalars = None,
                s_eval=CR_ZERO, p_override: int = None) -> Scalar:
    """The norm constant

    ``K_p = sum_{m=1}^{p} sum_k sum_l C(sigma-1,k) C(tau-1,l) a^(-l)
            (-1)^(m-1) eps0(m; s_eval)``.
    """
    scalars = _resolve_scalars(n, p, scalars)
    rho, sigma, tau = scalars.integer_exponents()
    bound = _p_bound(sigma, rho, p_override)
    return _kernel_sum(scalars, s_eval, bound, with_factorial=False)


@dataclass(frozen=True)
class GreenKernel:
    """Separated kernel: truncated-exponential prefactor in the second
    variable times a delta distribution in the first, with the accumulated
    scalar kept alongside for reporting."""

    prefactor: Polynomial
    delta_part: Distribution
    scalar: Scalar
    n: int
    p_bound: int
    s_eval: Scalar

    def coincidence(self) -> Distribution:
        """Kernel on the diagonal: the prefactor collapses to its value at 0."""
        return self.delta_part * self.prefactor.eval(CR_ZERO)


def _truncated_exponential(p: int) -> Polynomial:
    """``sum_{m=1}^{p} (i w)^(m-1) / (m-1)!``: the degree-(p-1) Taylor
    truncation of exp(i w), with ``i^k`` cycled and ``1/k!`` carried."""
    coeffs = []
    inv_factorial = Fraction(1)
    for k in range(p):
        part = inv_factorial if k % 4 < 2 else -inv_factorial
        coeffs.append(CRat(part) if k % 2 == 0 else CRat(0, part))
        inv_factorial /= k + 1
    return Polynomial(coeffs)


def green_kernel(n: int = None, p: HeunParams = None, s_eval=CR_ZERO, *,
                 scalars: KernelScalars = None, p_override: int = None) -> GreenKernel:
    """Assemble the separated kernel

    ``G(z, w) = [sum_{m=1}^{p} (i w)^(m-1)/(m-1)!]
                 * [sum_{m=1}^{p} sum_k sum_l C C a^(-l) (-1)^(m-1)
                    eps0(m; s_eval) (m-1)!] delta(z)``

    with the two ``m`` sums independent, exactly as printed.
    """
    scalars = _resolve_scalars(n, p, scalars)
    rho, sigma, tau = scalars.integer_exponents()
    bound = _p_bound(sigma, rho, p_override)
    coeff = _kernel_sum(scalars, s_eval, bound, with_factorial=True)
    return GreenKernel(
        prefactor=_truncated_exponential(bound),
        delta_part=Distribution.delta(0, 0, coeff),
        scalar=coeff,
        n=scalars.n,
        p_bound=bound,
        s_eval=_scalar(s_eval),
    )


def _nonzero_eigenvalue(E) -> Scalar:
    E = _scalar(E)
    if _is_zero(E):
        raise ZeroEigenvalue("coincidence kernel scales by 1/E; E = 0 is invalid")
    return E


def _coincidence_from_kp(kp: Scalar, E: Scalar) -> Distribution:
    """``(K_p / E) delta(w)`` for an eigenvalue already checked nonzero."""
    return Distribution.delta(0, 0, kp * (CR_ONE / E if isinstance(E, CRat) else 1.0 / E))


def _hs_norm_from_kp(kp: Scalar, omega0: CRat):
    """``|K_p|^2 |omega(0)|^2``: exact for an exact K_p, else a float."""
    if isinstance(kp, CRat):
        return kp.abs2() * omega0.abs2()
    return abs(kp) ** 2 * float(omega0.abs2())


def green_coincidence(n: int = None, p: HeunParams = None, E=CR_ONE, *,
                      scalars: KernelScalars = None, s_eval=CR_ZERO,
                      p_override: int = None) -> Distribution:
    """Coincidence kernel ``G+-(E, w) = (K_p / E) delta(w)``.

    The delta term has even order, so both half-plane signs give this same
    kernel.
    """
    E = _nonzero_eigenvalue(E)
    kp = kp_constant(n, p, scalars=scalars, s_eval=s_eval, p_override=p_override)
    return _coincidence_from_kp(kp, E)


def hs_norm_sq(n: int = None, p: HeunParams = None, *, scalars: KernelScalars = None,
               s_eval=CR_ZERO, p_override: int = None):
    """Squared Hilbert-Schmidt norm ``|K_p|^2 |omega(0)|^2``.

    ``omega(0)`` is the constant term of the reassembled weight polynomial,
    which vanishes exactly when ``rho > 1``; the norm is finite for every
    valid input and zero iff either factor is zero.
    """
    scalars = _resolve_scalars(n, p, scalars)
    rho, sigma, tau = scalars.integer_exponents()
    omega0 = weight_value_at_zero(rho, sigma, tau, scalars.a)
    kp = kp_constant(scalars=scalars, s_eval=s_eval, p_override=p_override)
    return _hs_norm_from_kp(kp, omega0)


def heaviside(lam: float) -> Fraction:
    """Symmetric step: 1 for positive, 0 for negative, 1/2 at zero."""
    if lam > 0:
        return Fraction(1)
    if lam < 0:
        return Fraction(0)
    return Fraction(1, 2)


@dataclass(frozen=True)
class SSFValue:
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
    kernel scaled by the symmetric step."""
    return SSFValue(kernel=G, heaviside_arg=float(lam))


def trace_green(G) -> Scalar:
    """Trace of the Green integral operator under delta semantics: the
    pairing of the coincidence kernel with the constant polynomial 1."""
    if isinstance(G, GreenKernel):
        return pair(G.coincidence(), Polynomial.one())
    if isinstance(G, Distribution):
        return pair(G, Polynomial.one())
    raise TypeError(f"expected GreenKernel or Distribution, got {type(G).__name__}")
