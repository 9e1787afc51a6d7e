"""Equal values hash equally: ``a == b`` implies ``hash(a) == hash(b)`` for
every value type, across the types each one compares equal with."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie.algpoly import CRat, DiffOp, Polynomial, Surd
from heunlie.greenssf import Distribution

# few values, so that independent draws are often equal; 1/3 has no float
parts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 4),
         Fraction(1, 3), Fraction(2)]
part_st = st.sampled_from(parts)
crat_st = st.builds(CRat, part_st, st.one_of(st.just(Fraction(0)), part_st))


def is_float_exact(x: Fraction) -> bool:
    return Fraction(float(x)) == x


def representations(z: CRat) -> list:
    """``z`` as every type that compares equal with it."""
    out = [z, Surd(z), Polynomial([z])]
    if is_float_exact(z.re) and is_float_exact(z.im):
        out.append(complex(z))
    if z.is_rational():
        out.append(z.re)
        if is_float_exact(z.re):
            out.append(float(z.re))
        if z.is_integer():
            out.append(int(z.re))
    return out


scalar_st = crat_st.flatmap(lambda z: st.sampled_from(representations(z)))
surd_st = st.one_of(
    st.builds(Surd, crat_st),
    st.builds(Surd, crat_st, crat_st, st.sampled_from([2, 8, Fraction(1, 2), -2, 4, CRat(0, 2)])),
)
poly_st = st.lists(crat_st, max_size=3).map(Polynomial)
diffop_st = st.lists(poly_st, max_size=3).map(DiffOp)
# centers and coefficients as exact values or as floats, which Distribution
# keeps as complex
dist_scalar_st = scalar_st.filter(lambda x: not isinstance(x, (Surd, Polynomial)))
distribution_st = st.lists(
    st.tuples(st.integers(0, 1), dist_scalar_st, dist_scalar_st), max_size=3
).map(Distribution)


def assert_consistent(a, b):
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestEqualValuesHashEqually:
    @given(crat_st)
    @example(CRat(Fraction(1, 2), Fraction(1, 2)))
    @example(CRat(-1, 1))
    @settings(max_examples=100, deadline=None)
    def test_every_representation_of_a_crat(self, z):
        for x in representations(z):
            assert x == z and z == x
            assert hash(x) == hash(z)

    def test_inexact_float_is_not_equal(self):
        third = CRat(Fraction(1, 3))
        assert third != 1 / 3 and third != complex(1 / 3, 0)
        assert CRat(Fraction(1, 3), 1) != complex(1 / 3, 1)
        assert CRat(0) != float("nan") and CRat(1) != float("inf")

    @given(scalar_st, scalar_st)
    @settings(max_examples=400, deadline=None)
    def test_scalars_across_types(self, a, b):
        assert_consistent(a, b)

    @given(surd_st, st.one_of(surd_st, scalar_st))
    @example(Surd(0, 2, 2), Surd(0, 1, 8))
    @example(Surd(1, 1, 4), CRat(3))
    @settings(max_examples=300, deadline=None)
    def test_surd(self, a, b):
        assert_consistent(a, b)

    @given(poly_st, st.one_of(poly_st, scalar_st))
    @example(Polynomial([CRat(2)]), 2)
    @example(Polynomial([CRat(2)]), CRat(2))
    @example(Polynomial([]), Fraction(0))
    @settings(max_examples=300, deadline=None)
    def test_polynomial(self, a, b):
        assert_consistent(a, b)

    @given(diffop_st, diffop_st)
    @example(DiffOp([Polynomial([1]), Polynomial([])]), DiffOp([Polynomial([1])]))
    @settings(max_examples=300, deadline=None)
    def test_diffop(self, a, b):
        assert_consistent(a, b)

    @given(distribution_st, distribution_st)
    @example(Distribution.delta(0, Fraction(1, 2), 2), Distribution.delta(0, 0.5, 2.0))
    @example(Distribution.delta(1, 0, CRat(-3, 0)), Distribution.delta(1, 0.0, -3))
    @example(Distribution.delta(0, CRat(-1, 1), 1), Distribution.delta(0, -1 + 1j, 1))
    @settings(max_examples=300, deadline=None)
    def test_distribution(self, a, b):
        assert_consistent(a, b)
