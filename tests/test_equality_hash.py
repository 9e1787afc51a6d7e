"""Equal values hash equally: ``a == b`` implies ``hash(a) == hash(b)`` for
every value type, across the types each one compares equal with."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie import algpoly, cli, distsol, greenssf, heunop, sl2rep
from heunlie.algpoly import CRat, DiffOp, Polynomial, Surd, _Immutable
from heunlie.distsol import weight_expansion
from heunlie.greenssf import Distribution
from heunlie.heunop import HeunParams
from heunlie.sl2rep import Spin, UEAExpr

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


def exact_representations(z: CRat) -> list:
    """``z`` as every exact type that ``CRat.from_value`` accepts."""
    return [x for x in representations(z) if isinstance(x, (CRat, Fraction, int))]


scalar_st = crat_st.flatmap(lambda z: st.sampled_from(representations(z)))
surd_st = st.one_of(
    st.builds(Surd, crat_st),
    st.builds(Surd, crat_st, crat_st, st.sampled_from([2, 8, Fraction(1, 2), -2, 4, CRat(0, 2)])),
)
poly_st = st.lists(crat_st, max_size=3).map(Polynomial)
diffop_st = st.lists(poly_st, max_size=3).map(DiffOp)
# centers and coefficients as any exact type; Distribution keeps them as CRat
dist_scalar_st = crat_st.flatmap(lambda z: st.sampled_from(exact_representations(z)))
distribution_st = st.lists(
    st.tuples(st.integers(0, 1), dist_scalar_st, dist_scalar_st), max_size=3
).map(Distribution)
# a avoids 0 and 1; the tables are small, so equal draws are common
a_st = dist_scalar_st.filter(lambda a: a != 0 and a != 1)
weight_st = st.builds(weight_expansion, st.integers(1, 2), st.integers(1, 3),
                      st.integers(1, 3), a_st)
params_st = st.builds(HeunParams, a_st, *[dist_scalar_st] * 6)


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
    @example(Distribution.delta(0, Fraction(1, 2), 2),
             Distribution.delta(0, CRat(Fraction(1, 2)), CRat(2)))
    @example(Distribution.delta(1, 0, CRat(-3, 0)), Distribution.delta(1, Fraction(0), -3))
    @example(Distribution.delta(0, CRat(-1, 1), 1), Distribution.delta(0, CRat(-1, 1), Fraction(1)))
    @settings(max_examples=300, deadline=None)
    def test_distribution(self, a, b):
        assert_consistent(a, b)

    @given(weight_st, weight_st)
    @example(weight_expansion(2, 3, 2, Fraction(-1, 2)), weight_expansion(2, 3, 2, CRat(Fraction(-1, 2))))
    @example(weight_expansion(1, 2, 3, 2), weight_expansion(1, 2, 3, CRat(2)))
    @settings(max_examples=300, deadline=None)
    def test_weight_expansion(self, a, b):
        assert_consistent(a, b)

    @given(params_st, params_st)
    @example(HeunParams(2, 0, 1, 1, 1, 1, 1), HeunParams(CRat(2), Fraction(0), 1, 1, 1, 1, 1))
    @settings(max_examples=300, deadline=None)
    def test_heun_params(self, a, b):
        assert_consistent(a, b)


# dyadic parts, so that each has an exact float twin
dyadic_st = st.builds(Fraction, st.integers(-64, 64), st.sampled_from([1, 2, 4, 8, 16]))


class TestPartsWithDifferentDenominators:
    """A ``CRat`` holds one denominator for both parts; values whose parts
    have different ones still equal, and hash as, their twins."""

    @given(dyadic_st, dyadic_st)
    @example(Fraction(1, 2), Fraction(3, 4))
    @example(Fraction(-3, 8), Fraction(5))
    @example(Fraction(7), Fraction(-1, 16))
    @settings(max_examples=200, deadline=None)
    def test_complex_twin(self, re, im):
        z = CRat(re, im)
        twin = complex(float(re), float(im))
        assert z == twin and twin == z and hash(z) == hash(twin)
        assert_consistent(z, twin)

    @given(st.fractions(max_denominator=60), st.fractions(max_denominator=60))
    @example(Fraction(1, 6), Fraction(1, 4))
    @example(Fraction(3), Fraction(1, 3))
    @example(Fraction(-1, 2), Fraction(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_real_twins_once_the_imaginary_part_cancels(self, re, im):
        # the difference is reduced to the real part's own denominator
        z = CRat(re, im) - CRat(0, im)
        assert z.triple == (re.numerator, 0, re.denominator)
        twins = [re, CRat(re)]
        if is_float_exact(re):
            twins.append(float(re))
        if re.denominator == 1:
            twins.append(int(re))
        for twin in twins:
            assert z == twin and twin == z and hash(z) == hash(twin)
            assert_consistent(z, twin)

    @pytest.mark.parametrize("name", ["re", "im", "triple"])
    def test_parts_cannot_be_assigned(self, name):
        z = CRat(Fraction(1, 6), Fraction(1, 4))
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
        assert (z.re, z.im) == (Fraction(1, 6), Fraction(1, 4))

    @pytest.mark.parametrize("args", [(1.5,), (1, 0.5), (0.5j,), (Fraction(1, 2), 1j)])
    def test_inexact_parts_raise_type_error(self, args):
        with pytest.raises(TypeError):
            CRat(*args)


class TestDistributionCenters:
    def test_equal_centers_of_two_types_merge(self):
        d = Distribution([(0, CRat(Fraction(1, 2)), 1), (0, Fraction(1, 2), 1)])
        assert len(d.terms) == 1
        assert d.terms[0][1] == CRat(Fraction(1, 2)) and isinstance(d.terms[0][1], CRat)
        assert d == Distribution.delta(0, Fraction(1, 2), 2)
        assert str(d) == "(2) delta(z-(1/2))"

    def test_centers_and_coefficients_are_kept_as_crat(self):
        d = Distribution([(1, Fraction(1, 2), 1), (1, CRat(Fraction(1, 2)), 2),
                          (1, Fraction(1, 2), Fraction(3))])
        assert d.terms == ((1, CRat(Fraction(1, 2)), CRat(6)),)
        assert all(type(x) is CRat for _, center, coeff in d.terms for x in (center, coeff))

    def test_orders_and_unequal_centers_stay_apart(self):
        third = CRat(Fraction(1, 3))
        d = Distribution([(0, third, 1), (0, Fraction(1, 3), 1), (1, third, 1),
                          (0, Fraction(1, 2), 1), (0, CRat(0), 1), (0, 0, 1)])
        assert [(o, str(c)) for o, c, _ in d.terms] == [
            (0, "0"), (0, "1/2"), (0, "1/3"), (1, "1/3"),
        ]
        assert [coeff for _, _, coeff in d.terms] == [CRat(2), CRat(1), CRat(2), CRat(1)]

    def test_terms_keep_exact_centers(self):
        third = CRat(Fraction(1, 3))
        d = Distribution([(0, third, 1), (0, CRat(Fraction(1, 3), 1), 5), (1, Fraction(1, 2), 7)])
        terms = {(o, c): coeff for o, c, coeff in d.terms}
        assert terms == {
            (0, third): CRat(1),
            (0, CRat(Fraction(1, 3), 1)): CRat(5),
            (1, CRat(Fraction(1, 2))): CRat(7),
        }
        # a Fraction center finds the equal CRat center
        assert terms[(0, Fraction(1, 3))] == 1 and terms[(1, Fraction(1, 2))] == 7

    def test_cancelling_terms_of_two_types_vanish(self):
        assert Distribution([(0, CRat(2), 1), (0, 2, -1)]) == Distribution.zero()
        assert Distribution([(1, Fraction(1, 2), Fraction(1, 3)), (1, CRat(Fraction(1, 2)),
                                                                   CRat(Fraction(-1, 3)))]) \
            == Distribution.zero()

    @given(
        st.lists(st.tuples(st.integers(0, 1), crat_st, crat_st), max_size=5),
        st.data(),
    )
    @example([(0, CRat(Fraction(1, 2)), CRat(1)), (0, CRat(-1), CRat(1))], None)
    @settings(max_examples=200, deadline=None)
    def test_center_types_and_term_order_do_not_matter(self, terms, data):
        a = Distribution(terms)
        if data is None:  # the explicit example: swap both center types by hand
            b = Distribution([(0, -1, 1), (0, Fraction(1, 2), 1)])
        else:
            mixed = [(o, data.draw(st.sampled_from(exact_representations(c))), k)
                     for o, c, k in terms]
            b = Distribution(data.draw(st.permutations(mixed)))
        assert a.terms == b.terms  # one canonical form
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("make, name", [
    (lambda: CRat(Fraction(1, 2), 3), "triple"),
    (lambda: Surd(1, 2, 3), "rad"),
    (lambda: Polynomial([1, 2]), "coeffs"),
    (lambda: DiffOp([Polynomial([1])]), "terms"),
    (lambda: Spin(Fraction(3, 2)), "j"),
    (lambda: UEAExpr([(1, "+0")], 2), "words"),
    (lambda: Distribution([(0, 1, 1)]), "terms"),
], ids=["CRat", "Surd", "Polynomial", "DiffOp", "Spin", "UEAExpr", "Distribution"])
def test_slots_refuse_assignment_and_deletion_alike(make, name):
    # a deleted slot would leave a value whose str, == and hash raise
    value = make()
    text, h = str(value), hash(value)
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(value, name)
    assert str(value) == text and hash(value) == h and value == make()


def test_one_immutability_rule_and_no_instance_dict():
    values = [CRat(Fraction(1, 2), 3), Surd(1, 2, 3), Polynomial([1, 2]),
              DiffOp([Polynomial([1])]), Spin(Fraction(3, 2)), UEAExpr([(1, "+0")], 2),
              Distribution([(0, 1, 1)])]
    for value in values:
        assert isinstance(value, _Immutable)
        # a base without empty __slots__ would give every value a __dict__
        assert not hasattr(value, "__dict__"), type(value).__name__
    # the rule is written once: only the base and frozen dataclasses set it
    for module in (algpoly, cli, distsol, greenssf, heunop, sl2rep):
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            own = {"__setattr__", "__delattr__"} & set(vars(cls))
            frozen = dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
            assert not own or cls is _Immutable or frozen, cls.__qualname__
