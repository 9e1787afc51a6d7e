"""Exact complex-rational scalars, dense polynomials, and the algebra of
linear differential operators with polynomial coefficients; also the
Heun parameter record, the weight-argument check that ``distsol`` and
``greenssf`` share, and the errors that every command maps to an exit code,
so that each command loads only the modules whose code it runs.

Every value in this module is immutable after construction and every
operation is a pure function, so everything here can be shared freely
between threads.  That rule is written once, in the private slotted base
``_Immutable``, from which the value types here, in ``sl2rep`` and in
``greenssf`` derive, and through ``_Record`` the records here, in
``heunop``, ``distsol`` and ``greenssf``.  A scalar ``CRat`` is one
Gaussian-integer numerator over one positive integer denominator, in lowest
terms, so each sum or product takes at most one gcd; arithmetic with a
float or a Python complex operand raises ``TypeError``.  Its ``re`` and
``im`` are the parts as reduced ``fractions.Fraction``, built when read.  A
``Polynomial`` is the same over a table: the Gaussian-integer numerators of
its coefficients over one denominator, a format no other module reads.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from fractions import Fraction
from itertools import chain, zip_longest
from typing import Iterable, Sequence, Union

__all__ = [
    "CRat",
    "Surd",
    "Polynomial",
    "DiffOp",
    "op_apply",
    "op_compose",
    "commutator",
    "monomial_images",
    "format_terms",
    "exact_int",
    "exact_count",
    "quadratic_roots",
    "csqrt_exact",
    "CR_ZERO",
    "CR_ONE",
    "CR_I",
    "NEG_INF",
    "HeunParams",
    "weight_args",
    "NonIntegerExponents",
    "DegenerateLeading",
    "DegenerateQuadratic",
    "OverflowColumn",
    "OracleMismatch",
]

#: degree/order of the zero polynomial / zero operator
NEG_INF = float("-inf")

ExactLike = Union[int, Fraction]


def _ratio(x) -> tuple[int, int]:
    """``(numerator, denominator)`` of an int (not a bool) or a Fraction."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
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


# the value a record's __init__ sets a field to, by the field's annotation (a
# string: every module postpones annotations); any other annotation keeps it
_FIELD_RULES = {"CRat": "_from_value({0})", "int": "_exact_int({0}, {0!r})", "tuple": "tuple({0})"}


class _Record(_Immutable):
    """Base of the records: values whose fields are the names annotated in
    the class body, in order (``FIELD_NAMES``), kept in the ``__dict__``,
    where ``RecurrenceSpec`` also keeps its bracket memo, which is not a field.

    Each record class gets an ``__init__`` that takes the fields by position
    or keyword, with their class attributes as defaults, and sets each by
    its annotation: a ``CRat`` field through ``CRat.from_value``, an ``int``
    field through ``exact_int``, a ``tuple`` field through ``tuple``, and
    any other as given.  It then calls the class's ``__post_init__``, if
    any, which checks what the annotation cannot.  ``==`` holds only between
    records of one class whose compared fields are equal (any other operand
    gets ``NotImplemented``), ``hash`` reads the same fields, and ``repr``
    is ``Name(field=value!r, ...)``.  The fields named in the class keyword
    ``uncompared`` are left out of all three.  ``as_dict`` is the report
    block: each field under its own name, in order, an ``int`` as itself, a
    tuple as a list and any other value as its ``str``.
    """

    __slots__ = ()
    FIELD_NAMES = ()
    _COMPARED = ()
    _ANNOTATIONS = {}

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls).get("__annotations__", {})
        # a subclass keeps the fields it inherits and their annotations
        cls._ANNOTATIONS = {**cls._ANNOTATIONS, **own}
        cls.FIELD_NAMES = tuple(cls._ANNOTATIONS)
        cls._COMPARED += tuple(n for n in own if n not in uncompared)
        # the __init__ is compiled once per class, as dataclasses does: a
        # generic one over *args and **kwargs took about 1 us more per record
        defaults = {n: getattr(cls, n) for n in cls.FIELD_NAMES if hasattr(cls, n)}
        params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}"
                         for n in cls.FIELD_NAMES)
        # object.__setattr__ keeps the fields in the instance's inline values,
        # where attribute reads are fastest; writing vars(self) would not
        values = [_FIELD_RULES.get(cls._ANNOTATIONS[n], "{0}").format(n) for n in cls.FIELD_NAMES]
        body = [f"_set(self, {n!r}, {v})" for n, v in zip(cls.FIELD_NAMES, values)]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        scope = {"_set": object.__setattr__, "_defaults": defaults,
                 "_from_value": CRat.from_value, "_exact_int": exact_int}
        exec(f"def __init__(self{params}):\n    " + ("\n    ".join(body) or "pass"), scope)
        scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = scope["__init__"]

    def _compared(self) -> tuple:
        return tuple([getattr(self, name) for name in self._COMPARED])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._COMPARED)
        return f"{type(self).__qualname__}({inner})"

    def as_dict(self) -> dict:
        return {name: _report_value(getattr(self, name)) for name in self.FIELD_NAMES}


def _report_value(x):
    """A field's report value, by the rule of :meth:`_Record.as_dict`."""
    if isinstance(x, int):
        return x
    if isinstance(x, tuple):
        return [_report_value(v) for v in x]
    return str(x)


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
        # over the lcm of the two reduced denominators, every prime of the
        # lcm leaves one part's numerator, so the triple is reduced
        d = math.lcm(p, q)
        _set_triple(self, (a * (d // p), b * (d // q), d))

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
        """Coerce an int (not a bool), Fraction, string literal or CRat to a CRat."""
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
        if not a:
            return f"{_ratio_text(b, d)}i"
        return f"{_ratio_text(a, d)}{'+' if b > 0 else '-'}{_ratio_text(abs(b), d)}i"

    def __repr__(self) -> str:
        return f"CRat({str(self)!r})"


_HASH = sys.hash_info
_HASH_MODULUS = 1 << _HASH.width
_new = object.__new__
_set_triple = CRat.triple.__set__
_ZERO_TRIPLE = (0, 0, 1)


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ints with ``d > 0``, by one gcd."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


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


def _reduced(a: int, b: int, d: int) -> CRat:
    """``(a + b i) / d`` for ints with ``d > 0``, in lowest terms: one gcd,
    none for a zero value."""
    if not (a or b):
        return CR_ZERO
    g = math.gcd(a, b, d)
    return _crat(a // g, b // g, d // g)


def _sum(a: int, b: int, d: int, c: int, e: int, f: int) -> CRat:
    """``(a + b i)/d + (c + e i)/f`` for triples with positive
    denominators, reduced by :func:`_reduced`."""
    return _reduced(a * f + c * d, b * f + e * d, d * f)


def _product(a: int, b: int, d: int, c: int, e: int, f: int) -> CRat:
    """``(a + b i)/d * (c + e i)/f`` for triples with positive
    denominators, reduced by :func:`_reduced`."""
    return _reduced(a * c - b * e, a * e + b * c, d * f)


def _quotient(a: int, b: int, d: int, c: int, e: int, f: int) -> CRat:
    """``(a + b i)/d / ((c + e i)/f)``: the numerator times ``f (c - e i)``
    over ``d (c^2 + e^2)``, reduced by :func:`_reduced`."""
    if not (c or e):
        raise ZeroDivisionError("division by zero CRat")
    return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))


CR_ZERO = CRat(0)
CR_ONE = CRat(1)
CR_I = CRat(0, 1)


def exact_int(x, name: str) -> int:
    """``x`` as an ``int``: an int (not a bool) or an integer-valued exact value.

    A float or complex raises ``TypeError``, as ``CRat.from_value`` does, and
    so does a bool; a non-integer exact value raises ``ValueError``.
    """
    if isinstance(x, bool):
        raise TypeError(f"{name} must be an exact integer, got bool")
    if isinstance(x, int):
        return x
    z = CRat.from_value(x)
    if not z.is_integer():
        raise ValueError(f"{name} must be an integer, got {z}")
    return z.triple[0]


def exact_count(k, name: str) -> int:
    """``k`` as an ``int >= 0`` by the rule of :func:`exact_int`; a negative
    value raises ``ValueError``."""
    k = exact_int(k, name)
    if k < 0:
        raise ValueError(f"{name} must be nonnegative, got {k}")
    return k


# -- the parameters and errors of every command ---------------------------------


class NonIntegerExponents(ValueError):
    """Weight exponents must be positive integers for the binomial table."""


class DegenerateLeading(ArithmeticError):
    """The term that the recurrence is solved for carries a zero factor."""


class DegenerateQuadratic(ArithmeticError):
    """The quadratic's leading symbol coefficient vanished at the evaluation point."""


class OverflowColumn(RuntimeError):
    """A basis column left the degree-bounded space."""

    def __init__(self, column: int, degree: int, bound: int):
        self.column = column
        self.degree = degree
        self.bound = bound
        super().__init__(
            f"column z^{column} maps to degree {degree} > {bound}; "
            "the operator does not preserve this polynomial space"
        )


class OracleMismatch(AssertionError):
    """Internal cross-check failed; this is the CI tripwire, never expected."""


class HeunParams(_Record):
    """The scalar data (a; q; alpha, beta, gamma, delta, epsilon).

    ``a`` must avoid 0 and 1 (the singular points must stay distinct).  The
    parameter constraint residual ``alpha + beta + 1 - gamma - delta -
    epsilon`` is exposed rather than enforced so that diagnostic inputs can
    be analyzed.
    """

    a: CRat
    q: CRat
    alpha: CRat
    beta: CRat
    gamma: CRat
    delta: CRat
    epsilon: CRat

    def __post_init__(self):
        if self.a == CR_ZERO or self.a == CR_ONE:
            raise ValueError(f"a must avoid 0 and 1, got a={self.a}")

    @property
    def constraint_residual(self) -> CRat:
        return self.alpha + self.beta + CR_ONE - self.gamma - self.delta - self.epsilon

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)}" for name in self.FIELD_NAMES)
        return f"HeunParams({inner})"


def _positive_int(x, name: str) -> int:
    """``x`` as a positive ``int`` by the rule of :func:`exact_int`, except
    that a non-integer or a value below 1 raises :class:`NonIntegerExponents`."""
    try:
        v = exact_int(x, name)
    except ValueError:
        v = 0
    if v >= 1:
        return v
    shown = x if isinstance(x, CRat) else repr(x)
    raise NonIntegerExponents(f"{name} must be a positive integer, got {shown}")


def weight_args(rho, sigma, tau, a) -> tuple[int, int, int, CRat]:
    """The exponents and location of the weight
    ``z^(rho-1) (z-1)^(sigma-1) (z-a)^(tau-1)``, checked: positive integers
    (else :class:`NonIntegerExponents`) and an exact ``a`` off 0 and 1."""
    rho = _positive_int(rho, "rho")
    sigma = _positive_int(sigma, "sigma")
    tau = _positive_int(tau, "tau")
    a = CRat.from_value(a)
    if a == CR_ZERO or a == CR_ONE:
        raise ValueError(f"a must avoid 0 and 1, got a={a}")
    return rho, sigma, tau, a


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
        other = Surd.from_value(other)
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
        return self + (-Surd.from_value(other))

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
        if isinstance(other, (float, complex)):
            return self.is_exact() and self.base == other
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

    The value is ``sum_k (re_k + im_k i) z^k / den``, held as the tuple
    ``_num`` of Gaussian-integer numerators ``(re_k, im_k)``, low degree
    first, over one ``_den > 0``: the last pair is nonzero and no prime of
    ``_den`` divides every part (the zero polynomial is ``((), 1)``).  That
    form is unique, so two polynomials are equal exactly when their fields
    are, and a result takes one content gcd.  Only this module reads the
    fields; ``coeffs`` and ``coeff(k)`` build the ``CRat`` coefficients when
    read.

    ``degree`` of the zero polynomial is ``NEG_INF`` so that degree
    comparisons behave uniformly.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable = ()):  # low degree first
        triples = [CRat.from_value(c).triple for c in coeffs]
        # over the lcm of reduced denominators, each prime of the lcm leaves
        # a part of the coefficient it came from, so the table is reduced
        den = math.lcm(*(d for _, _, d in triples))
        num = [(a * (den // d), b * (den // d)) for a, b, d in triples]
        while num and num[-1] == (0, 0):
            num.pop()
        _set_num(self, tuple(num))
        _set_den(self, den)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return _poly((), 1)

    @classmethod
    def one(cls) -> "Polynomial":
        return _poly(((1, 0),), 1)

    @classmethod
    def variable(cls) -> "Polynomial":
        return _poly(((0, 0), (1, 0)), 1)

    @classmethod
    def monomial(cls, k: int) -> "Polynomial":
        return _poly(((0, 0),) * exact_count(k, "monomial degree") + ((1, 0),), 1)

    @classmethod
    def from_ints(cls, num: Iterable, den: int) -> "Polynomial":
        """``sum_k (re_k + im_k i) z^k / den`` for the int pairs ``num``, low
        degree first, and an int ``den > 0``, reduced by one content gcd, as
        ``CRat.from_ints`` reduces a scalar."""
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        return _reduced_poly(list(num), den)

    # -- structure ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[CRat, ...]:
        """The coefficients, low degree first, each in lowest terms."""
        d = self._den
        return tuple(_reduced(a, b, d) for a, b in self._num)

    @property
    def degree(self):
        return len(self._num) - 1 if self._num else NEG_INF

    def is_zero(self) -> bool:
        return not self._num

    def coeff(self, k: int) -> CRat:
        if 0 <= k < len(self._num):
            return _reduced(*self._num[k], self._den)
        return CR_ZERO

    # -- algebra ----------------------------------------------------------

    def __add__(self, other):
        (p, q), den = _common((self, self._as_poly(other)))
        return _reduced_poly(
            [(a + c, b + e) for (a, b), (c, e) in zip_longest(p, q, fillvalue=(0, 0))], den
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + -self._as_poly(other)

    def __rsub__(self, other):
        return self._as_poly(other) - self

    def __neg__(self):
        return _poly(tuple((-a, -b) for a, b in self._num), self._den)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if not (self._num and other._num):
                return Polynomial.zero()
            return _reduced_poly(_convolve(self._num, other._num), self._den * other._den)
        c, e, f = CRat.from_value(other).triple
        out = [(a * c - b * e, a * e + b * c) for a, b in self._num]
        return _reduced_poly(out, self._den * f)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return _power(self, exact_count(n, "exponent"), Polynomial.one())

    @staticmethod
    def _as_poly(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        a, b, d = CRat.from_value(other).triple
        return _reduced_poly([(a, b)], d)

    def derivative(self, order: int = 1) -> "Polynomial":
        order = exact_count(order, "derivative order")
        # c_k z^k differentiates to perm(k, order) c_k z^(k - order)
        out = []
        for k, (a, b) in enumerate(self._num[order:], order):
            f = math.perm(k, order)
            out.append((a * f, b * f))
        return _reduced_poly(out, self._den)

    def eval(self, x):
        """Horner evaluation: exact at an exact ``x``, the composition at a
        ``Polynomial`` ``x``, and a Python complex at a float or complex
        ``x``."""
        d = self._den
        if isinstance(x, (float, complex)):
            z = 0j
            # int true division is correctly rounded, as complex(CRat) is
            for a, b in reversed(self._num):
                z = z * x + complex(a / d, b / d)
            return z
        if isinstance(x, Polynomial):
            table, f = x._num or ((0, 0),), x._den
        else:
            c, e, f = CRat.from_value(x).triple
            table = ((c, e),)
        # Horner on the numerators, with x = table / f:
        # acc = sum_k num_k table^k f^(degree - k), which is f^degree d p(x)
        acc, power = [(0, 0)], 1
        for a, b in reversed(self._num):
            acc = _convolve(acc, table)
            acc[0] = (acc[0][0] + a * power, acc[0][1] + b * power)
            power *= f
        den = d * f ** max(len(self._num) - 1, 0)
        if isinstance(x, Polynomial):
            return _reduced_poly(acc, den)
        return _reduced(*acc[0], den)

    # -- comparisons / text ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self._num == other._num and self._den == other._den
        if isinstance(other, (int, Fraction, float, complex, CRat, Surd)):
            # a constant compares as its scalar
            return len(self._num) <= 1 and self.coeff(0) == other
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        if len(self._num) <= 1:
            return hash(self.coeff(0))
        return hash(self.coeffs)

    def __str__(self) -> str:
        return format_terms([(c, k, 0) for k, c in enumerate(self.coeffs)])

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


_set_num = Polynomial._num.__set__
_set_den = Polynomial._den.__set__


def _poly(num: tuple, den: int) -> Polynomial:
    """``Polynomial`` from a canonical table and denominator, without the
    coercion of ``Polynomial.__init__``."""
    p = _new(Polynomial)
    _set_num(p, num)
    _set_den(p, den)
    return p


def _reduced_poly(num: list, den: int) -> Polynomial:
    """The polynomial of the ``(re, im)`` int pairs ``num`` over ``den > 0``:
    trailing zero pairs trimmed, then one content gcd (none over 1)."""
    while num and num[-1] == (0, 0):
        num.pop()
    if not num:
        return _poly((), 1)
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(num))
        if g != 1:
            return _poly(tuple((a // g, b // g) for a, b in num), den // g)
    return _poly(tuple(num), den)


def _common(polys) -> tuple[list, int]:
    """The numerator tables of ``polys`` over the lcm ``D`` of their
    denominators, and ``D``."""
    den = math.lcm(*(p._den for p in polys))
    tables = []
    for p in polys:
        s = den // p._den
        tables.append(p._num if s == 1 else [(a * s, b * s) for a, b in p._num])
    return tables, den


def _mul_add(re: list, im: list, p, q) -> None:
    """Add the product of the Gaussian-integer tables ``p`` and ``q`` into
    the part lists ``re`` and ``im``, a zero factor skipped."""
    for s, (a, b) in enumerate(p):
        if a or b:
            for t, (c, e) in enumerate(q, s):
                re[t] += a * c - b * e
                im[t] += a * e + b * c


def _convolve(p, q) -> list:
    """The product of two nonempty Gaussian-integer tables, untrimmed."""
    re, im = [0] * (len(p) + len(q) - 1), [0] * (len(p) + len(q) - 1)
    _mul_add(re, im, p, q)
    return list(zip(re, im))


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
    def d(cls) -> "DiffOp":
        return cls([Polynomial.zero(), Polynomial.one()])

    @classmethod
    def from_term(cls, poly, order: int = 0) -> "DiffOp":
        poly = poly if isinstance(poly, Polynomial) else Polynomial._as_poly(poly)
        return cls([Polynomial.zero()] * exact_count(order, "derivative order") + [poly])

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
        p, q = self.terms, other.terms
        if len(p) < len(q):
            p, q = q, p
        return DiffOp([*(x + y for x, y in zip(p, q)), *p[len(q):]])

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + -other

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

    Computed with the Leibniz rule
    ``D^k (q g) = sum_i C(k, i) q^(i) D^(k-i) g`` on the numerator tables
    over the two operators' common denominators, so each coefficient of the
    result takes one content gcd.
    """
    (P, dl), (Q, dm) = _common(L.terms), _common(M.terms)
    if not (P and Q):
        return DiffOp.zero()
    width = max(map(len, P)) + max(map(len, Q)) - 1
    acc = [([0] * width, [0] * width) for _ in range(len(P) + len(Q) - 1)]
    for m, q in enumerate(Q):
        dq = q  # the table of q^(i)
        for i in range(min(len(P), len(q))):  # i <= k, and q^(i) = 0 past its degree
            if i:
                dq = [(a * n, b * n) for n, (a, b) in enumerate(dq[1:], 1)]
            for k in range(i, len(P)):
                if P[k]:
                    c = math.comb(k, i)
                    piece = dq if c == 1 else [(a * c, b * c) for a, b in dq]
                    _mul_add(*acc[k + m - i], P[k], piece)
    return DiffOp([_reduced_poly(list(zip(re, im)), dl * dm) for re, im in acc])


def commutator(L: DiffOp, M: DiffOp) -> DiffOp:
    """``[L, M] = L M - M L`` as differential operators."""
    return op_compose(L, M) - op_compose(M, L)


def monomial_images(L: DiffOp, N: int):
    """Yield, for ``c = 0, ..., N``, the nonzero coefficients of ``L(z^c)``
    as a dict ``{degree: CRat}``.

    For ``L = sum_k p_k D^k`` the coefficient of ``z^r`` is the band sum
    ``sum_k p_k[r - c + k] * c!/(c-k)!``, taken on the numerator tables over
    the lcm of the ``p_k`` denominators: one gcd per nonzero coefficient.
    """
    tables, den = _common(L.terms)
    # the coefficient p_k[i] of z^i D^k lands on the diagonal r - c = i - k
    diagonals: dict[int, list] = {}
    for k, t in enumerate(tables):
        for i, (a, b) in enumerate(t):
            if a or b:
                diagonals.setdefault(i - k, []).append((k, a, b))
    for c in range(exact_count(N, "N") + 1):
        falling = [math.perm(c, k) for k in range(len(tables))]  # 0 for k > c
        col = {}
        for s, cells in diagonals.items():
            re = im = 0
            for k, a, b in cells:
                re += a * falling[k]
                im += b * falling[k]
            if re or im:
                col[c + s] = _reduced(re, im, den)
        yield col
