"""Exact complex-rational scalars, dense polynomials, and the algebra of
linear differential operators with polynomial coefficients.

Every value in this module is immutable after construction and every
operation is a pure function, so everything here can be shared freely
between threads.  Scalars are pairs of ``fractions.Fraction``; mixing a
float or a Python complex into an operation degrades the result to a
Python complex (used deliberately by the floating evaluation paths).
Arithmetic skips zero imaginary parts, so real operands cost what
``Fraction`` arithmetic costs; values, and report bytes, are unchanged.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "CRat",
    "Surd",
    "Polynomial",
    "DiffOp",
    "op_apply",
    "op_compose",
    "commutator",
    "quadratic_roots",
    "sqrt_fraction",
    "csqrt_exact",
    "CR_ZERO",
    "CR_ONE",
    "CR_I",
    "NEG_INF",
]

#: degree/order of the zero polynomial / zero operator
NEG_INF = float("-inf")

ExactLike = Union[int, Fraction, "CRat", str]
ScalarLike = Union[int, float, complex, Fraction, "CRat"]


def _fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return _strict_fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def _strict_fraction(s: str) -> Fraction:
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an integer or p/q literal: {s!r}")
    return Fraction(s)


class CRat:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: ExactLike = 0, im: ExactLike = 0):
        if isinstance(re, str):
            if im:
                raise TypeError("pass a single literal or two exact parts, not both")
            parsed = CRat.parse(re)
            re, im = parsed.re, parsed.im
        object.__setattr__(self, "re", _fraction(re))
        object.__setattr__(self, "im", _fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("CRat is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def from_value(cls, x) -> "CRat":
        """Coerce an int, Fraction, string literal or CRat to a CRat."""
        if isinstance(x, CRat):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        if isinstance(x, str):
            return cls.parse(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to CRat exactly")

    @classmethod
    def parse(cls, text: str) -> "CRat":
        """Parse an exact literal such as ``3/2``, ``-2i`` or ``3/2-1/2i``.

        Only integer and ``p/q`` components are accepted; floating point and
        symbolic inputs are rejected so exactness survives the text boundary.
        """
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty complex-rational literal")
        try:
            if not s.endswith("i"):
                return cls(_strict_fraction(s))
            body = s[:-1]
            # last sign that is not the leading sign splits re from im
            split = -1
            for k in range(len(body) - 1, 0, -1):
                if body[k] in "+-" and body[k - 1] not in "+-/":
                    split = k
                    break
            if split < 0:
                im_txt = body
                re_part = Fraction(0)
            else:
                re_part = _strict_fraction(body[:split])
                im_txt = body[split:]
            if im_txt in ("", "+"):
                im_part = Fraction(1)
            elif im_txt == "-":
                im_part = Fraction(-1)
            else:
                im_part = _strict_fraction(im_txt)
            return cls(re_part, im_part)
        except (ValueError, ZeroDivisionError) as exc:
            shown = repr(text) if len(text) <= 60 else f"{text[:40]!r}... ({len(text)} chars)"
            digits = max(map(len, re.findall(r"\d+", s)), default=0)
            limit = sys.get_int_max_str_digits()
            if 0 < limit < digits:
                raise ValueError(
                    f"a {digits}-digit integer exceeds the interpreter's int-digit limit "
                    f"{limit} (sys.get_int_max_str_digits()): {shown}"
                ) from exc
            raise ValueError(f"not an exact complex-rational literal: {shown}") from exc

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_rational(self) -> bool:
        return not self.im

    def is_integer(self) -> bool:
        return not self.im and self.re.denominator == 1

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        """Return other as CRat, or None when the float path must be used."""
        if isinstance(other, CRat):
            return other
        if isinstance(other, Fraction):
            return _crat(other, _ZERO)
        if isinstance(other, int):
            return _crat(Fraction(other), _ZERO)
        return None

    # A zero imaginary part is skipped rather than multiplied or added: each
    # branch below gives exactly the value of the four-product formula.

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) + other
            return NotImplemented
        return _crat(self.re + o.re, self.im + o.im if o.im else self.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) - other
            return NotImplemented
        return _crat(self.re - o.re, self.im - o.im if o.im else self.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other - complex(self)
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) * other
            return NotImplemented
        if not o.im:
            r = o.re
            return _crat(self.re * r, self.im * r if self.im else self.im)
        if not self.im:
            r = self.re
            return _crat(r * o.re, r * o.im)
        return _crat(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) / other
            return NotImplemented
        if not o.im:
            r = o.re
            if not r:
                raise ZeroDivisionError("division by zero CRat")
            return _crat(self.re / r, self.im / r if self.im else self.im)
        d = o.re * o.re + o.im * o.im
        return _crat((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other / complex(self)
            return NotImplemented
        return o / self

    def __neg__(self):
        return _crat(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return CR_ONE / self ** (-n)
        out = CR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "CRat":
        return _crat(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Exact squared modulus re**2 + im**2."""
        return self.re * self.re + self.im * self.im

    # -- conversions / comparisons ------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                # exact, as a Fraction compares with a float: a finite float
                # equals only the one rational it represents
                z = complex(other)
                return self.re == z.real and self.im == z.imag
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # the hash of complex(re, im), computed from the parts' exact hashes,
        # so equal CRat, Fraction, int, float and complex values hash alike
        if not self.im:
            return hash(self.re)
        # wrap to a signed machine word, as complex's hash does; Python turns
        # a returned -1 into -2, as complex's hash does too
        h = (hash(self.re) + _HASH.imag * hash(self.im)) % _HASH_MODULUS
        return h - _HASH_MODULUS if h >= _HASH_MODULUS // 2 else h

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"CRat({str(self)!r})"


_ZERO = Fraction(0)
_HASH = sys.hash_info
_HASH_MODULUS = 1 << _HASH.width
_new_crat = object.__new__
_set_re = CRat.re.__set__
_set_im = CRat.im.__set__


def _crat(re: Fraction, im: Fraction) -> CRat:
    """CRat from two Fractions, without the validation of ``CRat.__init__``."""
    z = _new_crat(CRat)
    _set_re(z, re)
    _set_im(z, im)
    return z


CR_ZERO = CRat(0)
CR_ONE = CRat(1)
CR_I = CRat(0, 1)


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_fraction(q: Fraction):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = _isqrt_exact(q.numerator)
    if rn is None:
        return None
    rd = _isqrt_exact(q.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def csqrt_exact(z: CRat):
    """Principal square root of ``z`` when it lies back in Q(i), else None."""
    z = CRat.from_value(z)
    if not z.im:
        if z.re >= 0:
            r = sqrt_fraction(z.re)
            return None if r is None else CRat(r)
        s = sqrt_fraction(-z.re)
        return None if s is None else CRat(0, s)
    t = sqrt_fraction(z.abs2())
    if t is None:
        return None
    u2 = (z.re + t) / 2
    u = sqrt_fraction(u2)
    if u is None or u == 0:
        return None
    v = z.im / (2 * u)
    cand = CRat(u, v)
    if cand * cand == z:
        # principal branch: real part positive, or on the cut im >= 0
        if u > 0:
            return cand
        return -cand
    return None


class Surd:
    """Exact value ``base + coef * sqrt(rad)`` over the complex rationals.

    Construction normalizes: exactly representable roots collapse to the
    ``base`` part (``rad`` becomes 0), and a negative rational radicand is
    rewritten with a positive one by folding ``i`` into ``coef``, which
    matches the principal branch.  Arithmetic is closed within a fixed
    radicand, which is all the quadratic-root bookkeeping here needs.
    """

    __slots__ = ("base", "coef", "rad")

    def __init__(self, base=0, coef=0, rad=0):
        base = CRat.from_value(base)
        coef = CRat.from_value(coef)
        rad = CRat.from_value(rad)
        if coef.is_zero() or rad.is_zero():
            base, coef, rad = base, CR_ZERO, CR_ZERO
        else:
            root = csqrt_exact(rad)
            if root is not None:
                base = base + coef * root
                coef, rad = CR_ZERO, CR_ZERO
            elif rad.is_rational() and rad.re < 0:
                coef = coef * CR_I
                rad = -rad
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Surd is immutable")

    @classmethod
    def from_value(cls, x) -> "Surd":
        if isinstance(x, Surd):
            return x
        return cls(CRat.from_value(x))

    def is_exact(self) -> bool:
        """True when the value lies in Q(i) (no live radical part)."""
        return self.coef.is_zero()

    def exact_value(self) -> CRat:
        if not self.is_exact():
            raise ValueError(f"{self} retains an irrational radical part")
        return self.base

    # -- arithmetic within one radicand --------------------------------

    def _align(self, other):
        other = Surd.from_value(other) if not isinstance(other, Surd) else other
        if self.coef.is_zero() or other.coef.is_zero() or self.rad == other.rad:
            return other
        raise ValueError(f"incompatible radicands {self.rad} and {other.rad}")

    def _rad_with(self, other: "Surd") -> CRat:
        return self.rad if not self.coef.is_zero() else other.rad

    def __add__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) + other
        o = self._align(other)
        return Surd(self.base + o.base, self.coef + o.coef, self._rad_with(o))

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.base, -self.coef, self.rad)

    def __sub__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) - other
        return self + (-(Surd.from_value(other) if not isinstance(other, Surd) else other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) * other
        o = self._align(other)
        rad = self._rad_with(o)
        base = self.base * o.base + self.coef * o.coef * rad
        coef = self.base * o.coef + o.base * self.coef
        return Surd(base, coef, rad)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Surd(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons / conversions --------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CRat)):
            other = Surd.from_value(other)
        if not isinstance(other, Surd):
            return NotImplemented
        if self.base != other.base:
            return False
        if self.coef.is_zero() and other.coef.is_zero():
            return True
        if self.rad == other.rad:
            return self.coef == other.coef
        if self.coef.is_zero() or other.coef.is_zero():
            return False
        # distinct radicands: c1*sqrt(r1) == c2*sqrt(r2) over real positive
        # radicands iff c1^2 r1 == c2^2 r2 and c1/c2 is a positive rational
        if self.rad.is_rational() and other.rad.is_rational():
            if self.coef ** 2 * self.rad != other.coef ** 2 * other.rad:
                return False
            ratio = self.coef / other.coef
            return ratio.is_rational() and ratio.re > 0
        return False

    def __hash__(self):
        if self.coef.is_zero():
            return hash(self.base)
        # equal surds can differ in radicand (see __eq__) but not in coef^2 rad
        return hash((self.base, self.coef * self.coef * self.rad))

    def __complex__(self) -> complex:
        if self.coef.is_zero():
            return complex(self.base)
        if self.rad.is_rational() and self.rad.re > 0:
            root = math.sqrt(self.rad.re)
        else:
            root = cmath.sqrt(complex(self.rad))
        return complex(self.base) + complex(self.coef) * root

    def __str__(self) -> str:
        if self.coef.is_zero():
            return str(self.base)
        tail = f"({self.coef})*sqrt({self.rad})"
        if self.base.is_zero():
            return tail
        return f"{self.base} + {tail}"

    def __repr__(self) -> str:
        return f"Surd({str(self)!r})"


def quadratic_roots(a, b, c) -> tuple[Surd, Surd]:
    """Exact roots of ``a x^2 + b x + c`` (``a`` nonzero) as a Surd pair."""
    a = CRat.from_value(a)
    b = CRat.from_value(b)
    c = CRat.from_value(c)
    if a.is_zero():
        raise ZeroDivisionError("leading coefficient of the quadratic is zero")
    disc = b * b - CRat(4) * a * c
    center = -b / (CRat(2) * a)
    spread = CR_ONE / (CRat(2) * a)
    return Surd(center, spread, disc), Surd(center, -spread, disc)


class Polynomial:
    """Dense univariate polynomial over CRat, trailing zeros trimmed.

    ``degree`` of the zero polynomial is ``NEG_INF`` so that degree
    comparisons behave uniformly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # low degree first
        lst = [CRat.from_value(c) for c in coeffs]
        while lst and lst[-1].is_zero():
            lst.pop()
        object.__setattr__(self, "coeffs", tuple(lst))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "Polynomial":
        if k < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls([0] * k + [coeff])

    # -- structure ------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> CRat:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return CR_ZERO

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        other = self._as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __sub__(self, other):
        other = self._as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __rsub__(self, other):
        return self._as_poly(other) - self

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial.zero()
            out = [CR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        scalar = CRat.from_value(other)
        return Polynomial([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Polynomial.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @staticmethod
    def _as_poly(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial([CRat.from_value(other)])

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        p = self
        for _ in range(order):
            p = Polynomial([CRat(k) * c for k, c in enumerate(p.coeffs)][1:])
        return p

    def eval(self, x):
        """Horner evaluation; exact for CRat-like x, complex otherwise."""
        acc: ScalarLike = CR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def synthetic_division(self, c) -> tuple["Polynomial", CRat]:
        """Divide by ``(z - c)``: return quotient and remainder."""
        c = CRat.from_value(c)
        if self.is_zero():
            return Polynomial.zero(), CR_ZERO
        acc = CR_ZERO
        out = []
        for a in reversed(self.coeffs):
            acc = acc * c + a
            out.append(acc)
        rem = out.pop()
        return Polynomial(list(reversed(out))), rem

    def valuation_at(self, c) -> int:
        """Multiplicity of the root ``c`` (0 when p(c) != 0).

        Raises on the zero polynomial, whose valuation is unbounded.
        """
        if self.is_zero():
            raise ValueError("valuation of the zero polynomial is undefined")
        p, k = self, 0
        while True:
            q, rem = p.synthetic_division(c)
            if not rem.is_zero():
                return k
            p, k = q, k + 1

    def reversed_through(self, n: int) -> "Polynomial":
        """Return ``z^n * p(1/z)`` for ``n >= degree``."""
        if self.is_zero():
            return Polynomial.zero()
        if n < self.degree:
            raise ValueError("reversal bound below degree")
        out = [CR_ZERO] * (n + 1)
        for k, c in enumerate(self.coeffs):
            out[n - k] = c
        return Polynomial(out)

    # -- comparisons / text ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, CRat)):
            return self == self._as_poly(other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        if len(self.coeffs) <= 1:
            return hash(self.coeff(0))
        return hash(self.coeffs)

    def __str__(self) -> str:
        return format_terms([(c, k, 0) for k, c in enumerate(self.coeffs)])

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        terms = parse_terms(text)
        out = cls.zero()
        for coeff, zdeg, dord in terms:
            if dord:
                raise ValueError(f"derivative factor not allowed in a polynomial: {text!r}")
            out = out + cls.monomial(zdeg, coeff)
        return out


class DiffOp:
    """Linear differential operator ``sum_k p_k(z) D^k`` with Polynomial p_k."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):  # index = derivative order
        lst = [t if isinstance(t, Polynomial) else Polynomial._as_poly(t) for t in terms]
        while lst and lst[-1].is_zero():
            lst.pop()
        object.__setattr__(self, "terms", tuple(lst))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("DiffOp is immutable")

    @classmethod
    def zero(cls) -> "DiffOp":
        return cls(())

    @classmethod
    def identity(cls) -> "DiffOp":
        return cls((Polynomial.one(),))

    @classmethod
    def d(cls, order: int = 1) -> "DiffOp":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return cls([Polynomial.zero()] * order + [Polynomial.one()])

    @classmethod
    def from_term(cls, poly, order: int = 0) -> "DiffOp":
        poly = poly if isinstance(poly, Polynomial) else Polynomial._as_poly(poly)
        return cls([Polynomial.zero()] * order + [poly])

    @property
    def order(self):
        return len(self.terms) - 1 if self.terms else NEG_INF

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, k: int) -> Polynomial:
        if 0 <= k < len(self.terms):
            return self.terms[k]
        return Polynomial.zero()

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        n = max(len(self.terms), len(other.terms))
        return DiffOp([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        n = max(len(self.terms), len(other.terms))
        return DiffOp([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self):
        return DiffOp([-p for p in self.terms])

    def __mul__(self, scalar):
        return DiffOp([p * scalar for p in self.terms])

    __rmul__ = __mul__

    def __matmul__(self, other):
        return op_compose(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __str__(self) -> str:
        items = []
        for k, p in enumerate(self.terms):
            for d, c in enumerate(p.coeffs):
                items.append((c, d, k))
        return format_terms(items)

    def __repr__(self) -> str:
        return f"DiffOp({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "DiffOp":
        out = cls.zero()
        for coeff, zdeg, dord in parse_terms(text):
            out = out + cls.from_term(Polynomial.monomial(zdeg, coeff), dord)
        return out


# -- shared term grammar -------------------------------------------------
#
#   expr   := "0" | term (" + " term)*
#   term   := [coeff] ["z"["^"INT]] ["D"["^"INT]]     (at least one factor)
#   coeff  := RATIONAL | "(" CRAT ")"
#
# Coefficients with an imaginary part or a sign are always parenthesized on
# output, so " + " is an unambiguous separator.

_TERM_RE = re.compile(
    r"^(?:\((?P<paren>[^()]+)\)|(?P<plain>-?\d+(?:/\d+)?))?"
    r"\s*(?:z(?:\^(?P<zdeg>\d+))?)?"
    r"\s*(?:D(?:\^(?P<dord>\d+))?)?$"
)


def _split_terms(s: str) -> list[str]:
    """Split on `` + `` outside parentheses (coefficients may contain it)."""
    chunks = []
    depth = 0
    start = 0
    k = 0
    while k < len(s):
        if s[k] == "(":
            depth += 1
        elif s[k] == ")":
            depth -= 1
        elif depth == 0 and s.startswith(" + ", k):
            chunks.append(s[start:k])
            k += 3
            start = k
            continue
        k += 1
    chunks.append(s[start:])
    return chunks


def parse_terms(text: str) -> list[tuple[CRat, int, int]]:
    """Parse the term grammar into (coefficient, z-degree, D-order) triples."""
    s = text.strip()
    if s == "0" or not s:
        return []
    triples = []
    for chunk in _split_terms(s):
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk)
        if not m or not chunk:
            raise ValueError(f"cannot parse operator term {chunk!r}")
        coeff_txt = m.group("paren") or m.group("plain")
        has_z = "z" in chunk
        has_d = "D" in chunk
        if coeff_txt is None and not has_z and not has_d:
            raise ValueError(f"empty operator term in {text!r}")
        coeff = CRat.parse(coeff_txt) if coeff_txt is not None else CR_ONE
        zdeg = int(m.group("zdeg")) if m.group("zdeg") else (1 if has_z else 0)
        dord = int(m.group("dord")) if m.group("dord") else (1 if has_d else 0)
        triples.append((coeff, zdeg, dord))
    return triples


def format_terms(items: Sequence[tuple[CRat, int, int]]) -> str:
    """Render (coefficient, z-degree, D-order) triples in the term grammar."""
    chunks = []
    for c, zdeg, dord in items:
        if c.is_zero():
            continue
        factors = []
        simple = c.is_rational() and c.re >= 0
        omit_coeff = c == CR_ONE and (zdeg or dord)
        if not omit_coeff:
            factors.append(str(c) if simple else f"({c})")
        if zdeg == 1:
            factors.append("z")
        elif zdeg:
            factors.append(f"z^{zdeg}")
        if dord == 1:
            factors.append("D")
        elif dord:
            factors.append(f"D^{dord}")
        chunks.append(" ".join(factors))
    return " + ".join(chunks) if chunks else "0"


# -- module operations -----------------------------------------------------


def op_apply(L: DiffOp, f: Polynomial) -> Polynomial:
    """Apply the operator: ``sum_k p_k * f^(k)``, exactly."""
    out = Polynomial.zero()
    df = f
    for k, p in enumerate(L.terms):
        if k:
            df = df.derivative()
        if not p.is_zero():
            out = out + p * df
    return out


def op_compose(L: DiffOp, M: DiffOp) -> DiffOp:
    """Operator product: the unique N with N(f) = L(M(f)) for every f.

    Computed with the Leibniz rule:
    ``D^k (q g) = sum_i C(k, i) q^(i) D^(k-i) g``.
    """
    acc: dict[int, Polynomial] = {}
    for k, p in enumerate(L.terms):
        if p.is_zero():
            continue
        for m, q in enumerate(M.terms):
            if q.is_zero():
                continue
            dq = q
            for i in range(k + 1):
                if i:
                    dq = dq.derivative()
                    if dq.is_zero():
                        break
                piece = p * dq * CRat(math.comb(k, i))
                order = k + m - i
                acc[order] = acc.get(order, Polynomial.zero()) + piece
    if not acc:
        return DiffOp.zero()
    top = max(acc)
    return DiffOp([acc.get(k, Polynomial.zero()) for k in range(top + 1)])


def commutator(L: DiffOp, M: DiffOp) -> DiffOp:
    """``[L, M] = L M - M L`` as differential operators."""
    return op_compose(L, M) - op_compose(M, L)
