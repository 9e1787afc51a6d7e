"""Spin-j realization of sl(2) by first-order differential operators and
formal words in the enveloping algebra.

The three generators at spin j are

    Jp = z^2 D - 2 j z,      J0 = z D - j,      Jm = D.

Formal quadratic expressions in these letters are kept exactly as written
(no normal-ordering); equality questions are settled by expanding to a
differential operator.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Iterable

from .algpoly import CR_ZERO, CRat, DiffOp, Polynomial, _Immutable, format_terms, op_compose

__all__ = [
    "UEAExpr",
    "make_generators",
    "spin",
    "uea_expand",
    "LETTERS",
]

#: generator letters, in the order (raising, neutral, lowering)
LETTERS = ("+", "0", "-")


def spin(j) -> Fraction:
    """The spin ``j`` as an exact real with ``2j`` an integer; ``j = n/2``
    covers every case used here.  ``j`` goes through ``CRat.from_value``, so
    a float or complex raises ``TypeError``; a non-real ``j`` or a ``2j``
    off the integers raises ``ValueError``."""
    z = CRat.from_value(j)
    if not z.is_rational():
        raise ValueError(f"spin j must be real, got j={z}")
    if (2 * z.re).denominator != 1:
        raise ValueError(f"2j must be an integer, got j={z}")
    return z.re


def make_generators(j) -> tuple[DiffOp, DiffOp, DiffOp]:
    """The spin-j triple (Jp, J0, Jm) = (z^2 D - 2jz, z D - j, D)."""
    return _generators(spin(j))


@functools.lru_cache(maxsize=1)
def _generators(j: Fraction) -> tuple[DiffOp, DiffOp, DiffOp]:
    # the last spin's triple is kept: an analysis expands its Heun words and
    # takes the raising generator from the one triple
    jp = DiffOp([Polynomial([0, -2 * j]), Polynomial.monomial(2)])
    j0 = DiffOp([Polynomial([-j]), Polynomial.variable()])
    return jp, j0, DiffOp.d()


class UEAExpr(_Immutable):
    """Formal linear combination of words in {Jp, J0, Jm} plus a constant.

    Words are stored exactly as written; empty words fold into the constant
    and zero-coefficient words are dropped.
    """

    __slots__ = ("words", "constant")

    def __init__(self, words: Iterable = (), constant=0):
        const = CRat.from_value(constant)
        kept = []
        for coeff, letters in words:
            coeff = CRat.from_value(coeff)
            letters = "".join(letters)
            if any(ch not in LETTERS for ch in letters):
                raise ValueError(f"unknown generator letter in word {letters!r}")
            if not letters:
                const = const + coeff
            elif not coeff.is_zero():
                kept.append((coeff, letters))
        object.__setattr__(self, "words", tuple(kept))
        object.__setattr__(self, "constant", const)

    def __eq__(self, other):
        if not isinstance(other, UEAExpr):
            return NotImplemented
        return self.words == other.words and self.constant == other.constant

    def __hash__(self):
        return hash((self.words, self.constant))

    def __str__(self) -> str:
        chunks = [f"{format_terms([(c, 0, 0)])} * {w}" for c, w in self.words]
        if not self.constant.is_zero() or not chunks:
            chunks.append(format_terms([(self.constant, 0, 0)]))
        return " + ".join(chunks)

    def __repr__(self):
        return f"UEAExpr({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "UEAExpr":
        """Parse the ``coeff * W`` grammar with W a word over {+, 0, -}.

        Each run of whitespace reads as one space.  Terms are separated by
        `` + `` (space, plus, space), except that a ``+`` right after ``* `` is
        a word; a bare coefficient is the constant term, e.g.
        ``1/2 * +0 + 1/2 * 0+ + (-1)``; what ``str`` prints parses back.
        """
        words = []
        constant = CR_ZERO
        s = " ".join(text.split())
        if not s:
            return cls()
        for chunk in re.split(r"(?<!\*) \+ ", s):
            chunk = chunk.strip()
            if "*" in chunk:
                coeff_txt, _, word = chunk.partition("*")
                word = word.strip()
                words.append((_parse_coeff(coeff_txt.strip()), word))
            else:
                constant = constant + _parse_coeff(chunk)
        return cls(words, constant)


def _parse_coeff(text: str) -> CRat:
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return CRat.parse(text)


def uea_expand(expr: UEAExpr, j) -> DiffOp:
    """Substitute the spin-j generators for the letters and expand."""
    return _expand(expr.words, expr.constant, dict(zip(LETTERS, make_generators(j))))


def _expand(words, constant: CRat, table: dict) -> DiffOp:
    """``constant + sum c_w L_w`` for the ``(c_w, w)`` pairs, ``L_w`` the
    product of the letters' operators.  Composition is linear in its right
    factor, so the words that start with one letter ``x`` are expanded as
    one product ``L_x (sum c_w L_v)`` over their tails ``v``."""
    out = DiffOp.identity() * constant
    for x in LETTERS:
        tails = [(c, w[1:]) for c, w in words if w[0] == x]
        if tails:
            longer = [(c, v) for c, v in tails if v]
            scalar = sum((c for c, v in tails if not v), CR_ZERO)
            if longer:
                out = out + op_compose(table[x], _expand(longer, scalar, table))
            else:
                out = out + table[x] * scalar
    return out
