"""Distributional-solution machinery: weight expansion, falling factorials,
the two three-term recurrences obtained from the real and imaginary parts of
the transformed eigenequation, their printed closed-form root formulas, and
residual analysis of the closed-form claim.

The two recurrences, with ``(k)_m`` the falling factorial and ``l`` the
combined exponent offset, are

  real:  [(k+2)_(l+2) - a (k+2)_l] c_{k-2}
             - [rho (k+1)_(l+1) - tau (k+1)_(l-1)] c_{k-1}
             + ab (k)_l c_k                                  = 0

  imag:  -[(1+a) (k+2)_(l+1) - a (k+2)_l] c_{k-2}
             + sigma (k+1)_l c_{k-1} + E (k)_(l-1) c_k        = 0

Forward solves are exact over the complex rationals, so their residuals are
exactly zero.  The printed closed forms use per-k roots of the associated
quadratics; since those roots vary with k they do not satisfy the recurrence
in general, and :func:`residual_check` measures exactly how far off they are
instead of repairing the claim.

The branches differ only in their row of ``_BRANCHES``.  Each bracket
triple ``(A, B, C)`` of a branch and index k is built once per spec by
:func:`_brackets`, which also refuses a zero ``C``: the forward solve, the
residual table and the root formulas of one report read the same triples.
A triple is built straight from the integer triples of the spec's scalars:
one ``math.perm`` per falling-factorial family, the shared factor
``(k+2-l)(k+1-l)`` (or ``k+2-l``) for the longer factorials of a family,
and one gcd per bracket (:meth:`~heunlie.algpoly.CRat.from_ints`).
Every step, of a forward solve or alone, carries the primes its
denominators can have, so it is reduced to lowest terms without a gcd on a
full-size operand.

CPython turns an int into decimal text in quadratic time, and a report's
integers run to thousands of digits.  So a forward solve also keeps each
real step's small integers from :func:`~heunlie.algpoly.exact_dot`, and
:meth:`CoeffSequence.as_list` prints a large value by replaying its step
in exact ``decimal`` arithmetic, checked against the int modulo a prime,
one linear pass on each side (see :func:`_replayed_text` and
:func:`_residue`).
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .algpoly import CR_ONE, CR_ZERO, CRat, Surd, exact_dot
from .heunop import OracleMismatch

__all__ = [
    "NonIntegerExponents",
    "DegenerateLeading",
    "WeightExpansion",
    "RecurrenceSpec",
    "CoeffSequence",
    "exact_int",
    "weight_expansion",
    "weight_value_at_zero",
    "recur_real",
    "recur_imag",
    "forward_real",
    "forward_imag",
    "closed_form_roots_real",
    "closed_form_roots_imag",
    "paper_ck",
    "residual_check",
]


class NonIntegerExponents(ValueError):
    """Weight exponents must be positive integers for the binomial table."""


class DegenerateLeading(ArithmeticError):
    """The term that the recurrence is solved for carries a zero factor."""


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
    return int(z.re)


def _ff(k: int, m: int) -> int:
    """``(k)_m`` for ints ``k`` and ``m >= 0``: ``perm(k, m)``, and
    ``(-1)^m perm(m-k-1, m)`` for ``k < 0``."""
    if k >= 0:
        return math.perm(k, m)
    p = math.perm(m - k - 1, m)
    return -p if m & 1 else p


@dataclass(frozen=True)
class WeightExpansion:
    """Binomial expansion table of ``z^(rho-1) (z-1)^(sigma-1) (z-a)^(tau-1)``.

    ``h[m][n]`` multiplies ``z^(m + n + rho - 1)``; reassembling the table
    reproduces the product form exactly.
    """

    rho: int
    sigma: int
    tau: int
    a: CRat
    h: tuple  # of row tuples

    def value_at_zero(self) -> CRat:
        """Constant term of the reassembled weight; see :func:`weight_value_at_zero`."""
        return weight_value_at_zero(self.rho, self.sigma, self.tau, self.a)

    def as_dict(self) -> dict:
        return {
            "rho": self.rho,
            "sigma": self.sigma,
            "tau": self.tau,
            "a": str(self.a),
            "h": [[str(c) for c in row] for row in self.h],
        }


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


def _weight_args(rho, sigma, tau, a) -> tuple[int, int, int, CRat]:
    rho = _positive_int(rho, "rho")
    sigma = _positive_int(sigma, "sigma")
    tau = _positive_int(tau, "tau")
    a = CRat.from_value(a)
    if a == CR_ZERO or a == CR_ONE:
        raise ValueError(f"a must avoid 0 and 1, got {a}")
    return rho, sigma, tau, a


def weight_expansion(rho, sigma, tau, a) -> WeightExpansion:
    """Full coefficient table

    ``h[m][n] = C(sigma-1, m) C(tau-1, n) (-1)^(sigma+tau+m+n) a^(tau-n-1)``

    for ``0 <= m <= sigma-1``, ``0 <= n <= tau-1``.
    """
    rho, sigma, tau, a = _weight_args(rho, sigma, tau, a)
    h = []
    for m in range(sigma):
        row = []
        for n in range(tau):
            sign = -1 if (sigma + tau + m + n) % 2 else 1
            row.append(
                CRat(sign * math.comb(sigma - 1, m) * math.comb(tau - 1, n))
                * a ** (tau - n - 1)
            )
        h.append(tuple(row))
    return WeightExpansion(rho, sigma, tau, a, tuple(h))


def weight_value_at_zero(rho, sigma, tau, a) -> CRat:
    """Constant term ``omega(0)`` of the weight, without building the table:
    ``h[0][0] = (-1)^(sigma+tau) a^(tau-1)`` when rho = 1, else 0.

    Validates its arguments exactly as :func:`weight_expansion` does.
    """
    rho, sigma, tau, a = _weight_args(rho, sigma, tau, a)
    if rho != 1:
        return CR_ZERO
    return CRat(-1 if (sigma + tau) % 2 else 1) * a ** (tau - 1)


@dataclass(frozen=True)
class RecurrenceSpec:
    """Scalar data of one recurrence instance: the exponent offset ``l`` and
    the operator scalars (rho, sigma, tau, ab, E, a)."""

    l: int
    rho: CRat
    sigma: CRat
    tau: CRat
    ab: CRat
    E: CRat
    a: CRat
    # (branch, k) -> (A, B, C); filled by _brackets and left out of ==,
    # hash and repr, so a used spec equals a fresh one
    _brackets: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def make(cls, l, rho=0, sigma=0, tau=0, ab=0, E=0, a=2) -> "RecurrenceSpec":
        return cls(
            l=exact_int(l, "l"),
            rho=CRat.from_value(rho),
            sigma=CRat.from_value(sigma),
            tau=CRat.from_value(tau),
            ab=CRat.from_value(ab),
            E=CRat.from_value(E),
            a=CRat.from_value(a),
        )

    def __post_init__(self):
        if self.l < 1:
            raise ValueError(f"exponent offset l must be >= 1, got {self.l}")

    def as_dict(self) -> dict:
        return {
            "l": self.l,
            "rho": str(self.rho),
            "sigma": str(self.sigma),
            "tau": str(self.tau),
            "ab": str(self.ab),
            "E": str(self.E),
            "a": str(self.a),
        }


def _real_brackets(spec: RecurrenceSpec, k: int) -> tuple[CRat, CRat, CRat]:
    """(A, B, C) with the real recurrence reading A c_{k-2} - B c_{k-1} + C c_k = 0.

    With ``s = (k+2-l)(k+1-l)``, ``(k+2)_(l+2) = s (k+2)_l`` and
    ``(k+1)_(l+1) = s (k+1)_(l-1)``, so ``A = (k+2)_l (s - a)``,
    ``B = (k+1)_(l-1) (s rho - tau)`` and ``C = (k)_l ab``.
    """
    l = spec.l
    s = (k + 2 - l) * (k + 1 - l)
    p, q, r = _ff(k + 2, l), _ff(k + 1, l - 1), _ff(k, l)
    a1, a2, ad = spec.a.triple
    r1, r2, rd = spec.rho.triple
    t1, t2, td = spec.tau.triple
    b1, b2, bd = spec.ab.triple
    return (
        CRat.from_ints(p * (s * ad - a1), -p * a2, ad),
        CRat.from_ints(q * (s * r1 * td - t1 * rd), q * (s * r2 * td - t2 * rd), rd * td),
        CRat.from_ints(r * b1, r * b2, bd),
    )


def _imag_brackets(spec: RecurrenceSpec, k: int) -> tuple[CRat, CRat, CRat]:
    """(A, B, C) with the imaginary recurrence reading -A c_{k-2} + B c_{k-1} + C c_k = 0.

    With ``t = k+2-l``, ``(k+2)_(l+1) = t (k+2)_l``, so
    ``A = (1+a) (k+2)_(l+1) - a (k+2)_l = (k+2)_l (t + (t-1) a)``,
    ``B = (k+1)_l sigma`` and ``C = (k)_(l-1) E``.
    """
    l = spec.l
    t = k + 2 - l
    p, q, r = _ff(k + 2, l), _ff(k + 1, l), _ff(k, l - 1)
    a1, a2, ad = spec.a.triple
    s1, s2, sd = spec.sigma.triple
    e1, e2, ed = spec.E.triple
    return (
        CRat.from_ints(p * (t * ad + (t - 1) * a1), p * (t - 1) * a2, ad),
        CRat.from_ints(q * s1, q * s2, sd),
        CRat.from_ints(r * e1, r * e2, ed),
    )


class _Branch(NamedTuple):
    brackets: Callable  # (spec, int k) -> (A, B, C)
    signs: tuple  # of the A and B terms; C's is +1
    offset: int  # of the first determined index below l
    leading: str  # the bracket C, as DegenerateLeading names it
    roots: tuple  # (f, g) of the printed roots f B/C +- g/C sqrt(B^2 - 4CA)


# the imaginary discriminant is as printed: that quadratic's constant term
# is -A, so the conventional one would be B^2 + 4CA
_BRANCHES = {
    "real": _Branch(_real_brackets, (1, -1), 0, "ab * (k)_l", (CR_ONE / 2,) * 2),
    "imag": _Branch(_imag_brackets, (-1, 1), 1, "E * (k)_(l-1)", (CRat(-1), CR_ONE)),
}


def _brackets(spec: RecurrenceSpec, branch: str, k, why: str = "") -> tuple[CRat, CRat, CRat]:
    """(A, B, C) of ``branch`` at the index ``k``, an int or an integer-valued
    exact value (see :func:`exact_int`), built once per spec.  A zero ``C``
    raises :class:`DegenerateLeading`, its text ending in ``why``."""
    if type(k) is not int:
        k = exact_int(k, "k")
    out = spec._brackets.get((branch, k))
    if out is None:
        out = spec._brackets[branch, k] = _BRANCHES[branch].brackets(spec, k)
    if out[2].is_zero():
        raise DegenerateLeading(f"{_BRANCHES[branch].leading} = 0 at k={k}, l={spec.l}{why}")
    return out


def recur_real(spec: RecurrenceSpec, c_km2, c_km1, k: int) -> CRat:
    """Solve the real-part recurrence for ``c_k``.

    Degenerate for ``k < l`` (the leading falling factorial vanishes) and
    for ``ab = 0``.
    """
    return _step(spec, "real", CRat.from_value(c_km2), CRat.from_value(c_km1), k)[0]


def recur_imag(spec: RecurrenceSpec, c_km2, c_km1, k: int) -> CRat:
    """Solve the imaginary-part recurrence for ``c_k``.

    Degenerate for ``k < l - 1`` and for ``E = 0``.
    """
    return _step(spec, "imag", CRat.from_value(c_km2), CRat.from_value(c_km1), k)[0]


# A step returns c_k and the support of its solve grown by its brackets
# (see _grown); a step alone starts from its operands' denominators.  Given
# a list `steps`, it appends exact_dot's record of a step with a real C and
# real operands and a nonzero c_k, and None for any other step.
def _step(spec, branch: str, x: CRat, y: CRat, k: int, support: int | None = None,
          steps: list | None = None):
    A, B, C = _brackets(spec, branch, k, "; c_k is not determined here")
    sign_a, sign_b = _BRANCHES[branch].signs
    support = _grown(support or math.lcm(x.triple[2], y.triple[2]), A, B, C)
    record = [] if steps is not None and not (
        A.triple[1] or B.triple[1] or C.triple[1] or x.triple[1] or y.triple[1]) else None
    c = exact_dot(((-sign_a, A, x), (-sign_b, B, y)), C, support=support, record=record)
    if steps is not None:
        steps.append(tuple(record) if record and c else None)
    return c, support


def _grown(support: int, A: CRat, B: CRat, C: CRat) -> int:
    """``support`` grown by every prime a step with the nonzero leading
    bracket ``C = (c + e i)/f`` can bring into a denominator: those of the
    brackets' denominators and of ``c^2 + e^2``.  With ``g = gcd(c, e)``
    that is ``g^2 ((c/g)^2 + (e/g)^2)``, so ``g`` and the primitive norm
    cover its primes (for a real ``C``, ``g = |c|`` and the norm is 1)."""
    c, e, f = C.triple
    g = math.gcd(c, e)
    norm = (c // g) ** 2 + (e // g) ** 2
    # one lcm with the large support, after the small ones
    return math.lcm(support, math.lcm(g, norm, f, A.triple[2], B.triple[2]))


@dataclass(frozen=True)
class CoeffSequence:
    """Finite truncation c_0, ..., c_K of a delta-derivative coefficient series.

    A forward solve also keeps, per index, the record that
    :func:`~heunlie.algpoly.exact_dot` made of a real step, or None.  The
    records are left out of ``==``, hash and repr, so a solved sequence
    equals one built from its values.
    """

    values: tuple
    steps: tuple | None = field(default=None, compare=False, repr=False)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, k: int):
        return self.values[k]

    def as_list(self) -> list[str]:
        """Each value as ``str`` prints it."""
        if self.steps is None:
            return [str(v) for v in self.values]
        return _replayed_text(self.values, self.steps)


# A value with an integer of at least this many bits (about 500 digits) is
# printed from its replay; below that, str() of the int is faster (the
# crossover measured on CPython 3.11).
_REPLAY_BITS = 1700
# the tripwire compares residues modulo this prime (2^61 - 1, a Mersenne
# prime below the 10^19 word of decimal, so both residues take one linear
# pass: decimal's remainder by one word, and _residue's folds of the int)
_P = (1 << 61) - 1
# exact integer arithmetic: a step that would round raises instead
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)


def _replayed_text(values: tuple, steps: tuple) -> list[str]:
    """``str`` of each value, a large real one built from its step's integers.

    CPython converts an int to decimal text in quadratic time.  A recorded
    step instead rebuilds ``N_k`` and ``D_k`` in ``decimal`` from the two
    values before it, in time linear in their length for the small step
    integers, and checks each against its int by a residue modulo ``_P``;
    a mismatch or a division with a remainder raises ``OracleMismatch``.
    Only the last two replayed values are kept; one that went through
    ``str`` is read back from its text.  Values with no record (``c_0``,
    ``c_1``, zeros, complex values) and small ones go through ``str``.
    """
    limit = sys.get_int_max_str_digits()
    out = []
    prev = (None, None)  # (N, D) in decimal of c_(k-2) and c_(k-1), if replayed
    with decimal.localcontext(_EXACT):
        for k, (v, step) in enumerate(zip(values, steps)):
            a, _, d = v.triple
            if step is None or max(a.bit_length(), d.bit_length()) < _REPLAY_BITS:
                out.append(str(v))
                prev = (prev[1], None)
                continue
            u, w, j, m, G = _combination(step)
            x = prev[0] or _decimal_pair(out[k - 2])
            y = prev[1] or _decimal_pair(out[k - 1])
            num = _exact_quotient(u * x[0] + w * y[0], G, k)
            den = _exact_quotient(m * (y if j else x)[1], G, k)
            if int(num % _P) % _P != _residue(a) or int(den % _P) % _P != _residue(d):
                raise OracleMismatch(f"the replayed text of c_{k} disagrees with its value")
            text = _digits(num, a, limit)
            out.append(text if d == 1 else f"{text}/{_digits(den, d, limit)}")
            prev = (prev[1], (num, den))
    return out


def _residue(i: int) -> int:
    """``i % _P`` in linear time.  As ``2^(61t) = 1`` modulo ``_P``, adding
    the low ``61t`` bits of ``i`` to the rest keeps the residue.  Each fold
    halves the length; below 2048 bits CPython's division by ``_P`` is as
    fast (measured on CPython 3.11)."""
    n = i.bit_length()
    while n > 2048:
        s = 61 * (n // 122)
        i = (i & ((1 << s) - 1)) + (i >> s)
        n = i.bit_length()
    return i % _P


def _combination(step: tuple) -> tuple:
    """``(u, v, j, m, G)`` with ``N_k G = u N_(k-2) + v N_(k-1)`` and
    ``D_k G = m D_(k-2+j)``, from the record of a step's ``exact_dot``."""
    first, second, f, n, G = step
    u = v = 0
    if first:
        u, _, m = first
        j = 0
    if second:
        w, d, m = second
        u, v, j = u * d, w, 1
    return u * f, v * f, j, m * n, G


def _decimal_pair(text: str) -> tuple:
    """Numerator and denominator of a real value's text, in ``decimal``."""
    num, _, den = text.partition("/")
    return decimal.Decimal(num), decimal.Decimal(den or 1)


def _exact_quotient(x, G: int, k: int):
    if G == 1:
        return x
    q, r = divmod(x, G)
    if r:
        raise OracleMismatch(f"the replay of c_{k} does not divide exactly by {G}")
    return q


def _digits(x, i: int, limit: int) -> str:
    """The text of the int ``i``, read from its replay ``x``.  Past the
    interpreter's int-digit limit it is ``str(i)``, which raises CPython's
    own ``ValueError``."""
    if limit and x.adjusted() >= limit:
        return str(i)
    return str(x)


def _forward(spec, branch: str, c0, c1, K) -> CoeffSequence:
    if K < 1:
        raise ValueError("truncation K must be at least 1")
    start = max(2, spec.l - _BRANCHES[branch].offset)
    vals = [CRat.from_value(c0), CRat.from_value(c1)]
    steps = [None] * start
    # Every prime of a step's denominator divides `support`, by induction: it
    # divides a denominator of c_0 or c_1, or one that a step adds (_grown).
    support = math.lcm(*(v.triple[2] for v in vals))
    for k in range(2, K + 1):
        if k < start:
            # recurrence does not determine this band; take the minimal choice
            vals.append(CR_ZERO)
            continue
        c, support = _step(spec, branch, vals[k - 2], vals[k - 1], k, support, steps)
        vals.append(c)
    return CoeffSequence(tuple(vals), tuple(steps[:K + 1]))


def forward_real(spec: RecurrenceSpec, c0=1, c1=0, K: int = 32) -> CoeffSequence:
    """Forward solve of the real-part recurrence; indices below ``l`` that the
    recurrence cannot determine are filled with zero."""
    return _forward(spec, "real", c0, c1, K)


def forward_imag(spec: RecurrenceSpec, c0=1, c1=0, K: int = 32) -> CoeffSequence:
    """Forward solve of the imaginary-part recurrence (valid from ``l - 1``)."""
    return _forward(spec, "imag", c0, c1, K)


def _roots(spec: RecurrenceSpec, branch: str, k) -> tuple[CRat, Surd]:
    A, B, C = _brackets(spec, branch, k)
    f, g = _BRANCHES[branch].roots
    return f * B / C, Surd(0, g / C, B * B - CRat(4) * C * A)


def closed_form_roots_real(spec: RecurrenceSpec, k: int) -> tuple[CRat, Surd]:
    """The printed root parts (center, half-spread) of the quadratic

    ``ab (k)_l s^2 - [rho (k+1)_(l+1) - tau (k+1)_(l-1)] s
      + [(k+2)_(l+2) - a (k+2)_l] = 0``;

    ``center +- spread`` are its exact roots (the spread is an exact surd,
    principal branch when evaluated numerically).
    """
    return _roots(spec, "real", k)


def closed_form_roots_imag(spec: RecurrenceSpec, k: int) -> tuple[CRat, Surd]:
    """The printed root parts for the imaginary-branch quadratic

    ``E (k)_(l-1) t^2 + sigma (k+1)_l t - [(1+a)(k+2)_(l+1) - a (k+2)_l] = 0``.

    The printed half-spread lacks the conventional 1/2 factor, so
    ``center +- spread`` generally does *not* solve the quadratic; it is
    implemented exactly as printed and the substitution residual is left to
    :func:`residual_check`-style auditing in the callers.
    """
    return _roots(spec, "imag", k)


RootsFn = Callable[[RecurrenceSpec, int], tuple]


def paper_ck(A, B, roots_fn: RootsFn, spec: RecurrenceSpec, K: int,
             start: int = 0) -> CoeffSequence:
    """Evaluate the printed closed form

    ``c_k = A (r1_k + r2_k)^k + B (r1_k - r2_k)^k``,   ``A + B = 1``,

    with per-k roots supplied by ``roots_fn``.  Exact whenever the pieces
    stay in one radical field; degenerate indices propagate.  The root
    formulas are degenerate below the admissible range (``k < l`` on the
    real branch), so ``start`` can defer the closed form to that range;
    entries below ``start`` are zero.
    """
    A = CRat.from_value(A)
    B = CRat.from_value(B)
    if A + B != CR_ONE:
        raise ValueError("closed-form weights must satisfy A + B = 1")
    vals = []
    for k in range(K + 1):
        if k < start:
            vals.append(CR_ZERO)
            continue
        center, spread = roots_fn(spec, k)
        plus = _as_surd(center) + _as_surd(spread)
        minus = _as_surd(center) - _as_surd(spread)
        term = A * (plus ** k) + B * (minus ** k)
        vals.append(term.exact_value() if term.is_exact() else term)
    return CoeffSequence(tuple(vals))


def _as_surd(x) -> Surd:
    return x if isinstance(x, Surd) else Surd.from_value(x)


def residual_check(c: CoeffSequence, spec: RecurrenceSpec,
                   which: str) -> list[tuple[int, CRat | complex]]:
    """Left-hand side of the chosen recurrence on each admissible index.

    Admissible means the recurrence's own validity range: ``k >= l`` for the
    real branch, ``k >= l - 1`` for the imaginary one (and ``k >= 2`` so all
    three entries exist).  Exact zero residuals certify a true solution.
    A row that reads an irrational :func:`paper_ck` entry is a float complex.
    A zero leading bracket raises :class:`DegenerateLeading`.
    """
    if len(c) < 3:
        raise ValueError("need at least c_0, c_1, c_2 to evaluate residuals")
    if which not in ("real", "imag"):
        raise ValueError(f"branch must be 'real' or 'imag', got {which!r}")
    start = max(2, spec.l - _BRANCHES[which].offset)
    signs = (*_BRANCHES[which].signs, 1)
    vals = [_residual_ready(v) for v in c.values]
    out = []
    for k in range(start, len(c)):
        A, B, C = _brackets(spec, which, k)
        x, y, z = vals[k - 2], vals[k - 1], vals[k]
        if isinstance(x, CRat) and isinstance(y, CRat) and isinstance(z, CRat):
            res = exact_dot(((signs[0], A, x), (signs[1], B, y), (signs[2], C, z)))
        else:
            res = (
                signs[0] * complex(A) * complex(x)
                + signs[1] * complex(B) * complex(y)
                + signs[2] * complex(C) * complex(z)
            )
        out.append((k, res))
    return out


def _residual_ready(v):
    if isinstance(v, Surd):
        return v.exact_value() if v.is_exact() else complex(v)
    return v
