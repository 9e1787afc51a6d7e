import random
from fractions import Fraction

import pytest

from heunlie.algpoly import CRat, DiffOp, Polynomial, commutator, op_apply
from heunlie.sl2rep import Spin, UEAExpr, make_generators, uea_expand
from util import rand_crat


class TestSpin:
    def test_half_integers_only(self):
        assert Spin(Fraction(1, 2)).n == 1
        assert Spin.from_n(-3).j == Fraction(-3, 2)
        with pytest.raises(ValueError):
            Spin(Fraction(1, 3))


class TestGenerators:
    def test_zero_spin_triple(self):
        jp, j0, jm = make_generators(0)
        assert jp == DiffOp.from_term(Polynomial.monomial(2), 1)
        assert j0 == DiffOp.from_term(Polynomial.variable(), 1)
        assert jm == DiffOp.d()

    def test_pointwise_values(self):
        jp, j0, jm = make_generators(Fraction(1, 2))
        assert op_apply(j0, Polynomial.one()) == Polynomial([Fraction(-1, 2)])
        assert op_apply(jp, Polynomial.one()) == Polynomial([0, -1])
        jp1, _, _ = make_generators(1)
        assert op_apply(jp1, Polynomial.variable()) == Polynomial([0, 0, -1])

    def test_commutation_relations_as_realized(self):
        # the realized algebra: [J0, Jp] = Jp, [J0, Jm] = -Jm, and
        # [Jp, Jm] = -2 J0 (the raising/lowering bracket carries the minus
        # sign with these generators; see the analysis in the verification
        # suite for the +2 J0 variant)
        for n in range(-4, 5):
            jp, j0, jm = make_generators(Fraction(n, 2))
            assert commutator(j0, jp) == jp
            assert commutator(j0, jm) == jm * CRat(-1)
            assert commutator(jp, jm) == j0 * CRat(-2)

    def test_monomial_weights(self):
        for n in range(0, 7):
            j = Fraction(n, 2)
            jp, j0, jm = make_generators(j)
            for m in range(0, n + 1):
                zm = Polynomial.monomial(m)
                assert op_apply(j0, zm) == zm * CRat(Fraction(m) - j)
                if m > 0:
                    lowered = op_apply(jm, zm)
                    assert lowered.degree == m - 1
            # degree-n space is invariant under all three generators
            raised = op_apply(jp, Polynomial.monomial(n))
            assert raised.is_zero() or raised.degree <= n

    def test_invariant_subspace_all_generators(self):
        rng = random.Random(5)
        for n in range(0, 7):
            gens = make_generators(Fraction(n, 2))
            for _ in range(5):
                f = Polynomial([rand_crat(rng) for _ in range(n + 1)])
                for g in gens:
                    img = op_apply(g, f)
                    assert img.is_zero() or img.degree <= n


class TestUEAExpr:
    def test_empty_expression(self):
        assert uea_expand(UEAExpr(), 0) == DiffOp.zero()

    def test_symmetrized_raise_neutral(self):
        half = Fraction(1, 2)
        expr = UEAExpr([(half, "+0"), (half, "0+")])
        got = uea_expand(expr, 0)
        expected = DiffOp(
            [
                Polynomial.zero(),
                Polynomial.monomial(2, Fraction(3, 2)),
                Polynomial.monomial(3),
            ]
        )
        assert got == expected
        for m in range(7):
            zm = Polynomial.monomial(m)
            assert op_apply(got, zm) == op_apply(expected, zm)

    def test_symmetrized_neutral_lower(self):
        half = Fraction(1, 2)
        expr = UEAExpr([(half, "0-"), (half, "-0")])
        got = uea_expand(expr, 0)
        expected = DiffOp(
            [
                Polynomial.zero(),
                Polynomial([Fraction(1, 2)]),
                Polynomial.variable(),
            ]
        )
        assert got == expected

    def test_empty_words_fold_into_constant(self):
        expr = UEAExpr([(CRat(2), ""), (CRat(3), "+")], constant=1)
        assert expr.constant == CRat(3)
        assert expr.words == ((CRat(3), "+"),)

    def test_text_round_trip(self):
        expr = UEAExpr(
            [(Fraction(1, 2), "+0"), (Fraction(1, 2), "0+"), (CRat(-1, -1), "+-")],
            constant=CRat(Fraction(-3, 2)),
        )
        again = UEAExpr.parse(str(expr))
        assert again == expr

    def test_parse_examples(self):
        expr = UEAExpr.parse("1/2 * +0 + 1/2 * 0+ + (-3/2)")
        assert expr.words == ((CRat(Fraction(1, 2)), "+0"), (CRat(Fraction(1, 2)), "0+"))
        assert expr.constant == CRat(Fraction(-3, 2))

    def test_every_two_letter_word_token(self):
        for word in ("+0", "0+", "+-", "-+", "0-", "-0", "+", "0", "-"):
            expr = UEAExpr.parse(f"2 * {word}")
            assert expr.words == ((CRat(2), word),)
            assert not uea_expand(expr, Fraction(1, 2)).is_zero()

    def test_longer_words_expand_by_composition(self):
        from heunlie.algpoly import op_compose

        j = Fraction(3, 2)
        jp, j0, jm = make_generators(j)
        got = uea_expand(UEAExpr([(CRat(1), "+0-")]), j)
        assert got == op_compose(jp, op_compose(j0, jm))
