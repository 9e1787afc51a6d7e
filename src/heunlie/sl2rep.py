"""Spin-j realization of sl(2) by first-order differential operators and
formal words in the enveloping algebra.

The three generators at spin j are

    Jp = z^2 D - 2 j z,      J0 = z D - j,      Jm = D.

Formal quadratic expressions in these letters are kept exactly as written
(no normal-ordering); equality questions are settled by expanding to a
differential operator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterable, Union

from .algpoly import CR_ZERO, CRat, DiffOp, Polynomial, _Immutable, op_compose

__all__ = [
    "Spin",
    "UEAExpr",
    "make_generators",
    "uea_expand",
    "LETTERS",
]

#: generator letters, in the order (raising, neutral, lowering)
LETTERS = ("+", "0", "-")


class Spin(_Immutable):
    """Spin parameter j with 2j an integer; j = n/2 covers every case used here.
    ``j`` goes through ``CRat.from_value``, so a float or complex raises ``TypeError``."""

    __slots__ = ("j",)

    def __init__(self, j: Union[int, Fraction, "Spin"]):
        if isinstance(j, Spin):
            j = j.j
        z = CRat.from_value(j)
        if z.im or (2 * z.re).denominator != 1:
            raise ValueError(f"2j must be an integer, got j={z}")
        object.__setattr__(self, "j", z.re)

    @classmethod
    def from_n(cls, n: int) -> "Spin":
        return cls(Fraction(n, 2))

    @property
    def n(self) -> int:
        """The integer 2j."""
        return int(2 * self.j)

    def __eq__(self, other):
        if isinstance(other, Spin):
            return self.j == other.j
        if isinstance(other, (int, Fraction)):
            return self.j == other
        return NotImplemented

    def __hash__(self):
        return hash(self.j)

    def __repr__(self):
        return f"Spin({self.j})"


def make_generators(j) -> tuple[DiffOp, DiffOp, DiffOp]:
    """The spin-j triple (Jp, J0, Jm) = (z^2 D - 2jz, z D - j, D)."""
    j = Spin(j).j
    z2 = Polynomial.monomial(2)
    z1 = Polynomial.variable()
    jp = DiffOp.from_term(z2, 1) + DiffOp.from_term(z1 * CRat(-2 * j), 0)
    j0 = DiffOp.from_term(z1, 1) + DiffOp.from_term(Polynomial([-j]), 0)
    jm = DiffOp.d()
    return jp, j0, jm


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
        chunks = [f"{_coeff_text(c)} * {w}" for c, w in self.words]
        if not self.constant.is_zero() or not chunks:
            chunks.append(_coeff_text(self.constant))
        return " + ".join(chunks)

    def __repr__(self):
        return f"UEAExpr({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "UEAExpr":
        """Parse the ``coeff * W`` grammar with W a word over {+, 0, -}.

        Terms are separated by `` + `` (space, plus, space); a bare
        coefficient is the constant term, e.g. ``1/2 * +0 + 1/2 * 0+ + (-1)``.
        """
        words = []
        constant = CR_ZERO
        s = text.strip()
        if not s:
            return cls()
        for chunk in s.split(" + "):
            chunk = chunk.strip()
            if "*" in chunk:
                coeff_txt, _, word = chunk.partition("*")
                word = word.strip()
                words.append((_parse_coeff(coeff_txt.strip()), word))
            else:
                constant = constant + _parse_coeff(chunk)
        return cls(words, constant)


def _coeff_text(c: CRat) -> str:
    s = str(c)
    return s if c.is_rational() and c.re >= 0 else f"({s})"


def _parse_coeff(text: str) -> CRat:
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return CRat.parse(text)


def uea_expand(expr: UEAExpr, j) -> DiffOp:
    """Substitute the spin-j generators for the letters and expand."""
    jp, j0, jm = make_generators(j)
    table = {"+": jp, "0": j0, "-": jm}
    out = DiffOp.zero()
    for coeff, word in expr.words:
        ops = [table[ch] for ch in word]
        out = out + reduce(op_compose, ops) * coeff
    if not expr.constant.is_zero():
        out = out + DiffOp.identity() * expr.constant
    return out
