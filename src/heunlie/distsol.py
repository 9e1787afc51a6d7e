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

The branches differ only in their row of ``_BRANCHES``.  The brackets
``(A, B, C)`` of a branch and index k are Gaussian-integer numerators
``(alpha, beta, gamma)`` over one denominator ``L`` per spec and branch,
the lcm of the denominators of the scalars that branch reads.  They are
built once per spec by :func:`_brackets`, which also refuses a zero
``gamma``: the forward solve, the residual table and the root formulas of
one report read the same numerators.  A build takes one ``math.perm`` per
falling-factorial family, the shared factor ``(k+2-l)(k+1-l)`` (or
``k+2-l``) for the longer factorials of a family, and no gcd.
A step solves ``s_A alpha c_{k-2} + s_B beta c_{k-1} + gamma c_k = 0`` on
the integer triples of the values (see :func:`_solve`), and carries the
primes its denominators can have, so it is reduced to lowest terms
without a gcd on a full-size operand (:func:`_stripped`).  An exact
residual row is one integer three-term sum divided by ``L``.

CPython turns an int into decimal text in quadratic time, and a report's
integers run to thousands of digits.  So a forward solve also keeps the
small integers of each real step, and :meth:`CoeffSequence.as_list`
prints a large value by replaying its step in exact ``decimal``
arithmetic, checked against the int modulo a prime, one linear pass on
each side (see :func:`_replayed_text` and :func:`_residue`).
"""

from __future__ import annotations

import decimal
import math
import sys
from typing import Callable, NamedTuple

from .algpoly import (
    CR_ONE,
    CR_ZERO,
    CRat,
    DegenerateLeading,
    OracleMismatch,
    Surd,
    _Record,
    exact_count,
    exact_int,
    weight_args,
)

__all__ = [
    "WeightExpansion",
    "RecurrenceSpec",
    "CoeffSequence",
    "weight_expansion",
    "recur_real",
    "recur_imag",
    "forward_real",
    "forward_imag",
    "closed_form_roots_real",
    "closed_form_roots_imag",
    "paper_ck",
    "residual_check",
]


def _ff(k: int, m: int) -> int:
    """``(k)_m`` for ints ``k`` and ``m >= 0``: ``perm(k, m)``, and
    ``(-1)^m perm(m-k-1, m)`` for ``k < 0``."""
    if k >= 0:
        return math.perm(k, m)
    p = math.perm(m - k - 1, m)
    return -p if m & 1 else p


class WeightExpansion(_Record):
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
        """Constant term of the reassembled weight: ``h[0][0]``, the
        coefficient of ``z^(rho-1)``, when rho = 1, else 0."""
        return self.h[0][0] if self.rho == 1 else CR_ZERO


def weight_expansion(rho, sigma, tau, a) -> WeightExpansion:
    """Full coefficient table

    ``h[m][n] = C(sigma-1, m) C(tau-1, n) (-1)^(sigma+tau+m+n) a^(tau-n-1)``

    for ``0 <= m <= sigma-1``, ``0 <= n <= tau-1``.
    """
    rho, sigma, tau, a = weight_args(rho, sigma, tau, a)
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


class RecurrenceSpec(_Record):
    """Scalar data of one recurrence instance: the exponent offset ``l`` and
    the operator scalars (rho, sigma, tau, ab, E, a)."""

    l: int
    rho: CRat = 0
    sigma: CRat = 0
    tau: CRat = 0
    ab: CRat = 0
    E: CRat = 0
    a: CRat = 2

    def __post_init__(self):
        # (branch, k) -> (alpha, beta, gamma) and branch -> (L, scalars);
        # filled by _brackets and _scaled, and not a field, so a used spec
        # equals a fresh one
        object.__setattr__(self, "_brackets", {})
        if self.l < 1:
            raise ValueError(f"exponent offset l must be >= 1, got {self.l}")


# The brackets of a branch at index k are Gaussian-integer numerators
# (alpha, beta, gamma) over the lcm L of the denominators of the scalars
# that branch reads: (A, B, C) = (alpha, beta, gamma) / L.  Each takes the
# spec's l, the index, L and those scalars times L as (re, im) int pairs.


def _real_numerators(l: int, k: int, L: int, a, rho, tau, ab) -> tuple:
    """(alpha, beta, gamma) with the real recurrence reading
    A c_{k-2} - B c_{k-1} + C c_k = 0.

    With ``s = (k+2-l)(k+1-l)``, ``(k+2)_(l+2) = s (k+2)_l`` and
    ``(k+1)_(l+1) = s (k+1)_(l-1)``, so ``A = (k+2)_l (s - a)``,
    ``B = (k+1)_(l-1) (s rho - tau)`` and ``C = (k)_l ab``.
    """
    s = (k + 2 - l) * (k + 1 - l)
    p, q, r = _ff(k + 2, l), _ff(k + 1, l - 1), _ff(k, l)
    return (
        (p * (s * L - a[0]), -p * a[1]),
        (q * (s * rho[0] - tau[0]), q * (s * rho[1] - tau[1])),
        (r * ab[0], r * ab[1]),
    )


def _imag_numerators(l: int, k: int, L: int, a, sigma, E) -> tuple:
    """(alpha, beta, gamma) with the imaginary recurrence reading
    -A c_{k-2} + B c_{k-1} + C c_k = 0.

    With ``t = k+2-l``, ``(k+2)_(l+1) = t (k+2)_l``, so
    ``A = (1+a) (k+2)_(l+1) - a (k+2)_l = (k+2)_l (t + (t-1) a)``,
    ``B = (k+1)_l sigma`` and ``C = (k)_(l-1) E``.
    """
    t = k + 2 - l
    p, q, r = _ff(k + 2, l), _ff(k + 1, l), _ff(k, l - 1)
    return (
        (p * (t * L + (t - 1) * a[0]), p * (t - 1) * a[1]),
        (q * sigma[0], q * sigma[1]),
        (r * E[0], r * E[1]),
    )


class _Branch(NamedTuple):
    numerators: Callable  # (l, k, L, *scalars) -> (alpha, beta, gamma)
    scalars: tuple  # names of the spec's scalars the numerators read
    signs: tuple  # of the A and B terms; C's is +1
    offset: int  # of the first determined index below l
    leading: str  # the bracket C, as DegenerateLeading names it
    roots: tuple  # (f, g) of the printed roots f B/C +- g/C sqrt(B^2 - 4CA)


# the imaginary discriminant is as printed: that quadratic's constant term
# is -A, so the conventional one would be B^2 + 4CA
_BRANCHES = {
    "real": _Branch(_real_numerators, ("a", "rho", "tau", "ab"), (1, -1), 0,
                    "ab * (k)_l", (CR_ONE / 2,) * 2),
    "imag": _Branch(_imag_numerators, ("a", "sigma", "E"), (-1, 1), 1,
                    "E * (k)_(l-1)", (CRat(-1), CR_ONE)),
}


def _scaled(spec: RecurrenceSpec, branch: str) -> tuple:
    """``(L, scalars)`` of ``branch``, built once per spec: ``L`` the lcm
    of the denominators of the scalars it reads, each scalar times ``L``
    as an ``(re, im)`` int pair."""
    out = spec._brackets.get(branch)
    if out is None:
        triples = [getattr(spec, name).triple for name in _BRANCHES[branch].scalars]
        L = math.lcm(*(d for _, _, d in triples))
        out = spec._brackets[branch] = (L, tuple((a * (L // d), b * (L // d))
                                                 for a, b, d in triples))
    return out


def _numerators(spec: RecurrenceSpec, branch: str, k: int) -> tuple:
    """(alpha, beta, gamma) of ``branch`` at the int ``k``, not memoized."""
    L, scalars = _scaled(spec, branch)
    return _BRANCHES[branch].numerators(spec.l, k, L, *scalars)


def _brackets(spec: RecurrenceSpec, branch: str, k, why: str = "") -> tuple:
    """(alpha, beta, gamma) of ``branch`` at the index ``k``, an int or an
    integer-valued exact value (see :func:`exact_int`), built once per
    spec.  A zero ``gamma`` raises :class:`DegenerateLeading`, its text
    ending in ``why``."""
    if type(k) is not int:
        k = exact_int(k, "k")
    out = spec._brackets.get((branch, k))
    if out is None:
        out = spec._brackets[branch, k] = _numerators(spec, branch, k)
    if out[2] == (0, 0):
        raise DegenerateLeading(f"{_BRANCHES[branch].leading} = 0 at k={k}, l={spec.l}{why}")
    return out


def _crat_brackets(spec: RecurrenceSpec, branch: str, k) -> tuple[CRat, CRat, CRat]:
    """(A, B, C) of ``branch`` at ``k`` as ``CRat``, read from
    :func:`_brackets`."""
    out = _brackets(spec, branch, k)
    L = _scaled(spec, branch)[0]
    return tuple(CRat.from_ints(re, im, L) for re, im in out)


def recur_real(spec: RecurrenceSpec, c_km2, c_km1, k: int) -> CRat:
    """Solve the real-part recurrence for ``c_k``.

    Degenerate for ``k < l`` (the leading falling factorial vanishes) and
    for ``ab = 0``.
    """
    vals = [CRat.from_value(c_km2), CRat.from_value(c_km1)]
    _solve(spec, "real", vals, (k,))
    return vals[2]


def recur_imag(spec: RecurrenceSpec, c_km2, c_km1, k: int) -> CRat:
    """Solve the imaginary-part recurrence for ``c_k``.

    Degenerate for ``k < l - 1`` and for ``E = 0``.
    """
    vals = [CRat.from_value(c_km2), CRat.from_value(c_km1)]
    _solve(spec, "imag", vals, (k,))
    return vals[2]


def _solve(spec, branch: str, vals: list, ks, steps: list | None = None) -> None:
    """Append to ``vals`` the ``c_k`` solved for each index ``k`` of ``ks``
    in turn from the last two values, and to a list ``steps`` the record of
    each step (see :class:`CoeffSequence`).

    A step of ``s_A alpha c_{k-2} + s_B beta c_{k-1} + gamma c_k = 0`` puts
    ``c_{k-2} = N_{k-2}/D_{k-2}`` and ``c_{k-1} = N_{k-1}/D_{k-1}`` over
    their lcm ``D_{k-1} f``, with ``f = D_{k-2}/g``, ``h = D_{k-1}/g`` and
    ``g`` their gcd, and divides by ``gamma`` through ``w/n``: for a real
    ``gamma = c``, ``w = sign(c)`` and ``n = |c|``; for a complex
    ``gamma = c + e i``, its conjugate and norm.  So
    ``N_k G = u N_{k-2} + v N_{k-1}`` and ``D_k G = m D_{k-1}`` with
    ``u = -s_A alpha w h``, ``v = -s_B beta w f`` and ``m = f n``, where
    ``G`` is the common factor that :func:`_stripped` takes out.  The next
    step's ``h/f`` is then ``D_k/D_{k-1} = m/G`` in lowest terms, so only
    a step after a zero value or the first one takes ``g`` by a gcd of
    denominators.  Every prime of ``m D_{k-1}`` divides ``support``, by
    induction: it divides a denominator of the first two values, or ``n``,
    whose primes are those of ``gcd(c, e)`` and of the primitive norm
    ``(c^2 + e^2)/gcd(c, e)^2`` (for a real ``gamma``, ``|c|`` and 1).
    A nonzero step with real ``u``, ``v`` and operands records
    ``(u, v, m, G)``; any other step records None.
    """
    sign_a, sign_b = _BRANCHES[branch].signs
    x, y = vals[-2].triple, vals[-1].triple
    support = math.lcm(x[2], y[2])
    ratio = None  # (f, h) of the next step, when the last step set it
    for k in ks:
        (a1, a2), (b1, b2), (c, e) = _brackets(spec, branch, k,
                                               "; c_k is not determined here")
        if e:
            g = math.gcd(c, e)
            n = c * c + e * e
            support = math.lcm(support, math.lcm(g, n // (g * g)))
            w1, w2 = c, -e
        else:
            n = abs(c)
            support = math.lcm(support, n)
            w1, w2 = (1, 0) if c > 0 else (-1, 0)
        x1, x2, dx = x
        y1, y2, dy = y
        if ratio is None:
            g = math.gcd(dx, dy)
            ratio = (dx // g, dy // g)
        f, h = ratio
        su, sv = -sign_a * h, -sign_b * f
        u1, u2 = (a1 * w1 - a2 * w2) * su, (a1 * w2 + a2 * w1) * su
        v1, v2 = (b1 * w1 - b2 * w2) * sv, (b1 * w2 + b2 * w1) * sv
        real = not (u2 or v2 or x2 or y2)
        if real:
            re, im = u1 * x1 + v1 * y1, 0
        else:
            re = u1 * x1 - u2 * x2 + v1 * y1 - v2 * y2
            im = u1 * x2 + u2 * x1 + v1 * y2 + v2 * y1
        if re or im:
            m = f * n
            re, im, d, G = _stripped(re, im, m * dy, support)
            x, y = y, (re, im, d)
            vals.append(_lowest(re, im, d))
            record = (u1, v1, m, G) if real else None
            g = math.gcd(m, G)
            ratio = (G // g, m // g)
        else:
            x, y = y, CR_ZERO.triple
            vals.append(CR_ZERO)
            record = ratio = None
        if steps is not None:
            steps.append(record)


# a CRat from a canonical triple, built as algpoly builds its results (a
# sibling module imports only public functions from algpoly)
_new = object.__new__
_set_triple = CRat.triple.__set__


def _lowest(a: int, b: int, d: int) -> CRat:
    """``CRat`` of a triple already in lowest terms, without its gcd."""
    z = _new(CRat)
    _set_triple(z, (a, b, d))
    return z


def _stripped(a: int, b: int, d: int, support: int) -> tuple[int, int, int, int]:
    """``(a/G, b/G, d/G, G)`` with ``(a + b i)/d`` in lowest terms, for a
    nonzero value with ``d > 0`` and a ``support`` that every prime of
    ``d`` divides.  Every common factor of ``a``, ``b`` and ``d`` then
    divides ``gcd(a, b, support)``; it is stripped by gcds with that small
    number and its divisors, never with the full-size ``d``.  A prime of
    ``d`` missing from ``support`` is not stripped, and the result is then
    not in lowest terms."""
    g, G = support, 1
    while True:
        g = math.gcd(a % g, b % g, g)
        if g != 1:
            g = math.gcd(d % g, g)
        if g == 1:
            return a, b, d, G
        a, b, d = a // g, b // g, d // g
        G *= g


class CoeffSequence(_Record, uncompared=("steps",)):
    """Finite truncation c_0, ..., c_K of a delta-derivative coefficient series.

    A forward solve also keeps, per index, the record ``(u, v, m, G)`` of a
    nonzero step with real integers (see :func:`_solve`), or None.  The
    records are left out of ``==``, hash and repr, so a solved sequence
    equals one built from its values.
    """

    values: tuple
    steps: tuple | None = None

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
            u, w, m, G = step
            x = prev[0] or _decimal_pair(out[k - 2])
            y = prev[1] or _decimal_pair(out[k - 1])
            num = _exact_quotient(u * x[0] + w * y[0], G, k)
            den = _exact_quotient(m * y[1], G, k)
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
    K = exact_int(K, "K")
    if K < 1:
        raise ValueError("truncation K must be at least 1")
    start = max(2, spec.l - _BRANCHES[branch].offset)
    # the recurrence does not determine the band below start; take the
    # minimal choice, and no more of it than K reaches
    band = min(start, K + 1)
    vals = [CRat.from_value(c0), CRat.from_value(c1)] + [CR_ZERO] * (band - 2)
    steps = [None] * band
    _solve(spec, branch, vals, range(start, K + 1), steps)
    return CoeffSequence(vals, tuple(steps))


def forward_real(spec: RecurrenceSpec, c0=1, c1=0, K: int = 32) -> CoeffSequence:
    """Forward solve of the real-part recurrence; indices below ``l`` that the
    recurrence cannot determine are filled with zero."""
    return _forward(spec, "real", c0, c1, K)


def forward_imag(spec: RecurrenceSpec, c0=1, c1=0, K: int = 32) -> CoeffSequence:
    """Forward solve of the imaginary-part recurrence (valid from ``l - 1``)."""
    return _forward(spec, "imag", c0, c1, K)


def _roots(spec: RecurrenceSpec, branch: str, k) -> tuple[CRat, Surd]:
    A, B, C = _crat_brackets(spec, branch, k)
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
    K, start = exact_count(K, "K"), exact_count(start, "start")
    vals = []
    for k in range(K + 1):
        if k < start:
            vals.append(CR_ZERO)
            continue
        center, spread = roots_fn(spec, k)
        plus = Surd.from_value(center) + Surd.from_value(spread)
        minus = Surd.from_value(center) - Surd.from_value(spread)
        term = A * (plus ** k) + B * (minus ** k)
        vals.append(term.exact_value() if term.is_exact() else term)
    return CoeffSequence(vals)


def residual_check(c: CoeffSequence, spec: RecurrenceSpec,
                   which: str) -> list[tuple[int, CRat | complex]]:
    """Left-hand side of the chosen recurrence on each admissible index.

    Admissible means the recurrence's own validity range: ``k >= l`` for the
    real branch, ``k >= l - 1`` for the imaginary one (and ``k >= 2`` so all
    three entries exist).  Exact zero residuals certify a true solution.
    Exact entries give exact rows; a row that reads an irrational
    :func:`paper_ck` entry is a float complex, and a float or complex
    entry raises ``TypeError``.
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
        brackets = _brackets(spec, which, k)
        x, y, z = vals[k - 2], vals[k - 1], vals[k]
        if isinstance(x, CRat) and isinstance(y, CRat) and isinstance(z, CRat):
            res = _row(_scaled(spec, which)[0], zip(signs, brackets, (x, y, z)))
        else:
            A, B, C = _crat_brackets(spec, which, k)
            res = (
                signs[0] * complex(A) * complex(x)
                + signs[1] * complex(B) * complex(y)
                + signs[2] * complex(C) * complex(z)
            )
        out.append((k, res))
    return out


def _row(L: int, terms) -> CRat:
    """Exact ``sum(sign * (p + q i) * value) / L`` over ``(sign, (p, q),
    value)`` of a sign, an int pair and a ``CRat``: the Gaussian-integer
    products summed over one common denominator, grown by the gcd of the
    running denominator and each value's, and reduced by one gcd at the end
    (none for a sum that cancels to 0)."""
    rn = jn = 0
    den = 1
    for sign, (p, q), value in terms:
        a, b, d = value.triple
        if sign < 0:
            p, q = -p, -q
        if q or b:
            x, y = p * a - q * b, p * b + q * a
        else:
            x, y = p * a, 0
        if not (x or y):
            continue
        g = math.gcd(den, d)
        s = den
        if g != 1:
            s //= g
            d //= g
        rn, jn, den = rn * d + x * s, jn * d + y * s, den * d
    if not (rn or jn):
        return CR_ZERO
    return CRat.from_ints(rn, jn, den * L)


def _residual_ready(v):
    if isinstance(v, CRat):
        return v
    if isinstance(v, Surd):
        return v.exact_value() if v.is_exact() else complex(v)
    return CRat.from_value(v)
