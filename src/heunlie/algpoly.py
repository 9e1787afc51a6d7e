"""Exact complex-rational scalars, dense polynomials, and the algebra of
linear differential operators with polynomial coefficients.

Every value in this module is immutable after construction and every
operation is a pure function, so everything here can be shared freely
between threads.  That rule is written once, in the private slotted base
``_Immutable``, from which the value types here, in ``sl2rep`` and in
``greenssf`` derive.  A scalar ``CRat`` is one Gaussian-integer numerator
over one positive integer denominator, in lowest terms, so each sum or
product takes at most one gcd; arithmetic with a float or a Python complex
operand raises ``TypeError``.  Its ``re`` and ``im`` are the parts as reduced
``fractions.Fraction``, built when read.
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
    "csqrt_exact",
    "exact_dot",
    "CR_ZERO",
    "CR_ONE",
    "CR_I",
    "NEG_INF",
]

#: degree/order of the zero polynomial / zero operator
NEG_INF = float("-inf")

ExactLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "CRat"]


def _ratio(x) -> tuple[int, int]:
    """``(numerator, denominator)`` of an int or a Fraction, in lowest terms."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


# The whole exact literal: an optional real part ``[+-]p[/q]`` that ends the
# text or meets the imaginary sign, then an optional ``[+-][p[/q]]i``.  Groups:
# real p and q, the imaginary sign (None without an imaginary part), imaginary
# p and q.
_LITERAL_RE = re.compile(
    r"(?:([+-]?\d+)(?:/(\d+))?(?=[+-]|\Z))?(?:([+-]?)(?:(\d+)(?:/(\d+))?)?i)?"
)


def _power(base, n: int, one):
    """``base ** n`` for an int ``n >= 0`` by square-and-multiply from ``one``;
    ``base`` is squared only while a higher bit of ``n`` remains."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class _Immutable:
    """Base of the exact value types: construction sets each slot through
    ``object.__setattr__`` or the slot descriptor, and any later assignment
    or deletion raises."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class CRat(_Immutable):
    """A complex number with exact rational real and imaginary parts.

    The value is ``(re_num + im_num * i) / den`` with ``den > 0`` and
    ``gcd(re_num, im_num, den) == 1``, read-only as the tuple ``triple``.
    That form is unique, so two values are equal exactly when their
    triples are.
    """

    __slots__ = ("triple",)

    def __init__(self, re: ExactLike = 0, im: ExactLike = 0):
        a, p = _ratio(re)
        b, q = _ratio(im)
        if p != q:
            # over the lcm of the two reduced denominators, every prime of
            # the lcm leaves one part's numerator, so the triple is reduced
            d = math.lcm(p, q)
            a, b, p = a * (d // p), b * (d // q), d
        _set_triple(self, (a, b, p))

    @property
    def re(self) -> Fraction:
        """The real part in lowest terms (one gcd; arithmetic reads the
        integers instead)."""
        a, _, d = self.triple
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        """The imaginary part in lowest terms."""
        _, b, d = self.triple
        return Fraction(b, d)

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
    def from_ints(cls, re_num: int, im_num: int, den: int) -> "CRat":
        """``(re_num + im_num i) / den`` for ints with ``den > 0``, reduced
        to lowest terms by one gcd (none for zero)."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        return _reduced(re_num, im_num, den)

    @classmethod
    def parse(cls, text: str) -> "CRat":
        """Parse an exact literal such as ``3/2``, ``-2i`` or ``3/2-1/2i``.

        After stripping the ends and dropping spaces, the text is a real
        part ``[+-]p[/q]``, an imaginary part ``[+-][p[/q]]i`` (a bare ``i``
        is 1), or both, real first.  Floating point, symbolic input and any
        other inner whitespace, a line break too, are refused, so exactness
        survives the text boundary.
        """
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty complex-rational literal")
        try:
            m = _LITERAL_RE.fullmatch(s)
            if m is None:
                raise ValueError("not an integer, p/q or complex literal")
            a, p, sign, b, q = m.groups()
            p, q = int(p or 1), int(q or 1)
            a = int(a or 0) * q
            b = 0 if sign is None else int(b or 1) * p
            return cls.from_ints(a, -b if sign == "-" else b, p * q)
        except ValueError as exc:
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
        return self.triple == _ZERO_TRIPLE

    def is_rational(self) -> bool:
        return not self.triple[1]

    def is_integer(self) -> bool:
        _, b, d = self.triple
        return not b and d == 1

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = other.triple if isinstance(other, CRat) else _operand(other)
        if o is None:
            return NotImplemented
        return _sum(*self.triple, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = other.triple if isinstance(other, CRat) else _operand(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        return _sum(*self.triple, -c, -e, f)

    def __rsub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, d = self.triple
        return _sum(*o, -a, -b, d)

    def __mul__(self, other):
        o = other.triple if isinstance(other, CRat) else _operand(other)
        if o is None:
            return NotImplemented
        return _product(*self.triple, *o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other.triple if isinstance(other, CRat) else _operand(other)
        if o is None:
            return NotImplemented
        return _quotient(*self.triple, *o)

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, *self.triple)

    def __neg__(self):
        a, b, d = self.triple
        return _crat(-a, -b, d)

    def __pos__(self):
        return self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return CR_ONE / _power(self, -n, CR_ONE)
        return _power(self, n, CR_ONE)

    def abs2(self) -> Fraction:
        """Exact squared modulus re**2 + im**2."""
        a, b, d = self.triple
        return Fraction(a * a + b * b, d * d)

    # -- conversions / comparisons ------------------------------------

    def __complex__(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is
        a, b, d = self.triple
        return complex(a / d, b / d)

    def __bool__(self) -> bool:
        return self.triple != _ZERO_TRIPLE

    def __eq__(self, other) -> bool:
        if isinstance(other, CRat):
            return self.triple == other.triple
        if isinstance(other, (int, Fraction)):
            return self.triple == (other.numerator, 0, other.denominator)
        if isinstance(other, (float, complex)):
            # exact, as a Fraction compares with a float: a finite float
            # equals only the one rational it represents
            z = complex(other)
            return self.re == z.real and self.im == z.imag
        return NotImplemented

    def __hash__(self):
        # the hash of complex(re, im), computed from the parts' exact hashes,
        # so equal CRat, Fraction, int, float and complex values hash alike
        if not self.triple[1]:
            return hash(self.re)
        # wrap to a signed machine word, as complex's hash does; Python turns
        # a returned -1 into -2, as complex's hash does too
        h = (hash(self.re) + _HASH.imag * hash(self.im)) % _HASH_MODULUS
        return h - _HASH_MODULUS if h >= _HASH_MODULUS // 2 else h

    def __str__(self) -> str:
        # each part as its reduced Fraction prints; a real value's triple is
        # already its reduced ratio
        a, b, d = self.triple
        if not b:
            return str(a) if d == 1 else f"{a}/{d}"
        re, im = self.re, self.im
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"

    def __repr__(self) -> str:
        return f"CRat({str(self)!r})"


_HASH = sys.hash_info
_HASH_MODULUS = 1 << _HASH.width
_new = object.__new__
_set_triple = CRat.triple.__set__
_ZERO_TRIPLE = (0, 0, 1)


def _crat(a: int, b: int, d: int) -> CRat:
    """``CRat`` from a canonical triple, without the validation of
    ``CRat.__init__``."""
    z = _new(CRat)
    _set_triple(z, (a, b, d))
    return z


def _operand(x):
    """The canonical triple of an int or a Fraction, else None; callers
    take a ``CRat`` operand's ``triple`` first."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _reduced(a: int, b: int, d: int, support: int | None = None,
             record: list | None = None) -> CRat:
    """``(a + b i) / d`` for ints with ``d > 0``, in lowest terms.

    A zero value takes no gcd, and any other one gcd without ``support``.
    With a ``support`` that every prime of ``d`` divides, every common
    factor of ``a``, ``b`` and ``d`` divides ``g = gcd(a, b, support)``; it
    is stripped by gcds with ``g`` and its divisors, never with the
    full-size ``d``.  A prime of ``d`` missing from ``support`` is not
    stripped, and the result is then not in lowest terms.  With a
    ``support``, a nonzero value appends the factor it stripped to a list
    ``record``.
    """
    if not (a or b):
        return CR_ZERO
    if support is None:
        g = math.gcd(a, b, d)
        return _crat(a // g, b // g, d // g)
    g, stripped = support, 1
    while True:
        g = math.gcd(a % g, b % g, g)
        if g != 1:
            g = math.gcd(d % g, g)
        if g == 1:
            if record is not None:
                record.append(stripped)
            return _crat(a, b, d)
        a, b, d = a // g, b // g, d // g
        stripped *= g


# The operations below skip a zero part rather than multiply it; each branch
# gives the value of the full formula.  _sum and _product take canonical
# triples, and _quotient any triples with a positive denominator.


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> CRat:
    """``(a + b i)/d + (c + e i)/f``.  Over a shared denominator one gcd
    reduces the sum, none when it is 1; if one denominator is 1 the cross
    sum is already reduced (a prime of the other leaves that one's
    numerator untouched)."""
    if d == f:
        if d == 1:
            return _crat(a + c, b + e, 1)
        a, b = a + c, b + e
    elif d == 1 or f == 1:
        return _crat(a * f + c * d, b * f + e * d, d * f)
    else:
        a, b, d = a * f + c * d, b * f + e * d, d * f
    g = math.gcd(a, b, d)
    return _crat(a // g, b // g, d // g)


def _product(a: int, b: int, d: int, c: int, e: int, f: int) -> CRat:
    """``(a + b i)/d * (c + e i)/f`` by one gcd, or none for Gaussian
    integers."""
    if not b and d == 1:  # an integer factor goes second
        a, b, d, c, e, f = c, e, f, a, b, d
    if not e and f == 1:
        # an integer c: gcd(c a, c b, d) == gcd(c, d), as gcd(a, b, d) == 1
        if d != 1:
            g = math.gcd(c, d)
            if g != 1:
                c, d = c // g, d // g
        return _crat(a * c, b * c, d)
    if not e:
        a, b = a * c, b * c
    elif not b:
        a, b = a * c, a * e
    else:
        a, b = a * c - b * e, a * e + b * c
    d *= f
    g = math.gcd(a, b, d)
    return _crat(a // g, b // g, d // g)


def _quotient(a: int, b: int, d: int, c: int, e: int, f: int,
              support: int | None = None, record: list | None = None) -> CRat:
    """``(a + b i)/d / ((c + e i)/f)``: the numerator times ``f (c - e i)``
    over ``d (c^2 + e^2)``, reduced by :func:`_reduced`.  A real divisor
    appends ``f`` and ``c``, made ``c > 0``, to a list ``record``."""
    if not e:
        if not c:
            raise ZeroDivisionError("division by zero CRat")
        if c < 0:
            c, f = -c, -f
        if record is not None:
            record += (f, c)
        return _reduced(a * f, b * f, d * c, support, record)
    return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e), support)


CR_ZERO = CRat(0)
CR_ONE = CRat(1)
CR_I = CRat(0, 1)


def exact_dot(terms: Iterable[tuple[int, CRat, CRat]], divisor: CRat | None = None,
              *, support: int | None = None, record: list | None = None) -> CRat:
    """Exact ``sum(sign * coef * value) / divisor`` over ``(sign, coef,
    value)`` triples of a sign ``+1`` or ``-1`` and two ``CRat``.

    The Gaussian-integer products are summed over one common denominator,
    grown by the gcd of the running denominator and each product's
    denominator, and reduced once at the end.  The operands of a three-term
    recurrence share most of their denominators' factors, so those gcds are
    cheap.  The reduction is the only gcd on the full-size numerator, and a
    sum that cancels to 0 needs none.  Given a ``support`` that every prime
    of the unreduced denominator divides, the reduction takes gcds with
    ``support`` instead (see :func:`_reduced`).  That precondition is not
    checked: a ``support`` missing such a prime gives a value that is not
    in lowest terms, which compares and hashes unequal to the canonical
    one.  A zero ``divisor`` raises ``ZeroDivisionError``, as ``CRat``
    division does.

    Given a list ``record`` and a ``support``, with every coefficient and
    the divisor real, the call appends the small integers that rebuild its
    result from the values' numerators and denominators.  For each term it
    appends None if the term's product is zero, and else ``(w, d, m)``: the
    summed numerator becomes ``S d + w num(value)``, and the summed
    denominator ``m den(value)``.  A real divisor, written ``n/f`` with
    ``n > 0``, appends ``f`` and ``n``, which multiply ``S`` and the
    denominator; a nonzero result appends the factor ``G`` that the
    reduction stripped from both.
    These are cofactors the sum computes anyway, so recording adds no gcd
    and no product of two full-size integers.
    """
    rn, jn, den = 0, 0, 1
    for sign, coef, value in terms:
        a, b, p = coef.triple
        c, e, q = value.triple
        if b:
            x, y = (a * c - b * e, a * e + b * c) if e else (a * c, b * c)
        else:
            x, y = a * c, a * e
        if not (x or y):
            if record is not None:
                record.append(None)
            continue
        if sign < 0:
            x, y = -x, -y
        # den becomes lcm(den, d) = den * d / g: the sum so far is scaled by
        # d / g and this term's product by s = den / g
        d = p * q
        g = math.gcd(den, d)
        s = den
        if g != 1:
            d //= g
            s //= g
        rn, jn, den = rn * d + x * s, jn * d + y * s, den * d
        if record is not None:
            record.append((sign * a * s, d, p * s))
    if divisor is None:
        return _reduced(rn, jn, den, support, record)
    return _quotient(rn, jn, den, *divisor.triple, support, record)


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


def csqrt_exact(z: CRat):
    """Principal square root of ``z`` when it lies back in Q(i), else None.

    For ``z = (a + b i) / d`` a root times ``d`` squares to the Gaussian
    integer ``d (a + b i)``, so it is a Gaussian integer ``u + v i`` (Z[i] is
    integrally closed).  With ``n = |a + b i|``, an integer then,
    ``u**2 = d (a + n) / 2`` and ``v**2 = d (n - a) / 2``; ``u >= 0`` and
    ``v`` takes the sign of ``b`` (``v >= 0`` for ``b = 0``), which is the
    principal branch.
    """
    a, b, d = CRat.from_value(z).triple
    n = _isqrt_exact(a * a + b * b)
    if n is None or d * (n + a) % 2:
        return None
    u = _isqrt_exact(d * (n + a) // 2)
    v = _isqrt_exact(d * (n - a) // 2)
    if u is None or v is None:
        return None
    return CRat.from_ints(u, -v if b < 0 else v, d)


class Surd(_Immutable):
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
        o = self._align(other)
        return Surd(self.base + o.base, self.coef + o.coef, self._rad_with(o))

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.base, -self.coef, self.rad)

    def __sub__(self, other):
        return self + (-(Surd.from_value(other) if not isinstance(other, Surd) else other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._align(other)
        rad = self._rad_with(o)
        base = self.base * o.base + self.coef * o.coef * rad
        coef = self.base * o.coef + o.base * self.coef
        return Surd(base, coef, rad)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return _power(self, n, Surd(1))

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


class Polynomial(_Immutable):
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
        return _power(self, n, Polynomial.one())

    @staticmethod
    def _as_poly(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        return Polynomial([CRat.from_value(other)])

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        # c_k z^k differentiates to perm(k, order) c_k z^(k - order)
        return Polynomial(
            [c * math.perm(k, order) for k, c in enumerate(self.coeffs[order:], order)]
        )

    def eval(self, x):
        """Horner evaluation: exact at an exact ``x``, a Python complex at a
        float or complex ``x``."""
        if isinstance(x, (float, complex)):
            z = 0j
            for c in reversed(self.coeffs):
                z = z * x + complex(c)
            return z
        acc: ScalarLike = CR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


class DiffOp(_Immutable):
    """Linear differential operator ``sum_k p_k(z) D^k`` with Polynomial p_k."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()):  # index = derivative order
        lst = [t if isinstance(t, Polynomial) else Polynomial._as_poly(t) for t in terms]
        while lst and lst[-1].is_zero():
            lst.pop()
        object.__setattr__(self, "terms", tuple(lst))

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


# -- term printer ----------------------------------------------------------


# A coefficient's text has no spaces (``3/2-1/2i``), so " + " only ever joins
# two terms; a signed or complex coefficient is parenthesized for the reader.
def format_terms(items: Sequence[tuple[CRat, int, int]]) -> str:
    """Render (coefficient, z-degree, D-order) triples as `` + ``-joined
    terms ``coeff z^a D^k``; no term renders as ``0``."""
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
