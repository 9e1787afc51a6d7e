import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie.algpoly import (
    CR_ONE,
    CR_ZERO,
    CRat,
    DiffOp,
    HeunParams,
    OverflowColumn,
    Polynomial,
    Surd,
    op_apply,
)
from heunlie.distsol import RecurrenceSpec, weight_expansion
from heunlie.greenssf import KernelScalars
from heunlie.heunop import (
    INFINITY,
    NotRegularSingular,
    build_canonical_cleared,
    build_expanded,
    Analysis,
    es_condition,
    extract_expanded_coeffs,
    indicial_exponents,
    is_lower_triangular,
    is_upper_triangular,
    matrix_diagonal,
    matrix_spectrum,
    qes_matrix,
    uea_heun,
    uea_heun_coeffs,
)
from heunlie.sl2rep import uea_expand
from util import (
    es_params,
    rand_fraction,
    rand_params,
    rand_poly,
    reference_indicial_exponents,
    surds_match,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestConstraint:
    def test_satisfied(self):
        p = HeunParams(a=2, q=0, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        assert p.constraint_residual == CR_ZERO

    def test_residual_one(self):
        p = HeunParams(a=2, q=0, alpha=2, beta=1, gamma=1, delta=1, epsilon=1)
        assert p.constraint_residual == CR_ONE

    def test_rho_equals_both_constraint_sides(self):
        rng = random.Random(53)
        for _ in range(20):
            p = rand_params(rng, constrained=True)
            got = extract_expanded_coeffs(build_expanded(p), p.a)
            assert got.rho == p.gamma + p.delta + p.epsilon
            assert got.rho == p.alpha + p.beta + CR_ONE

    def test_a_validation(self):
        with pytest.raises(ValueError):
            HeunParams(a=1, q=0, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        with pytest.raises(ValueError):
            HeunParams(a=0, q=0, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)

    def test_field_names_are_the_fields_in_order(self):
        assert HeunParams.FIELD_NAMES == tuple(HeunParams.__annotations__)
        p = HeunParams(2, 0, 1, Fraction(1, 2), 1, 1, 1)
        assert repr(p) == "HeunParams(a=2, q=0, alpha=1, beta=1/2, gamma=1, delta=1, epsilon=1)"


@pytest.mark.parametrize("make", [
    lambda: HeunParams(2, 0, 1, Fraction(1, 2), 1, 1, 1),
    lambda: uea_heun_coeffs(1, HeunParams(2, 0, 1, Fraction(1, 2), 1, 1, 1)),
    lambda: KernelScalars(1, 2, 1, 3, 2),
    lambda: RecurrenceSpec(2, 1, 3, 2, 2, 1, 3),
    lambda: weight_expansion(1, 2, 3, Fraction(1, 2)),
], ids=["HeunParams", "UEACoeffs", "KernelScalars", "RecurrenceSpec", "WeightExpansion"])
def test_report_block_is_the_fields_in_order(make):
    # the one rule of _Record.as_dict: an int stays an int, a tuple becomes
    # a list and any other value its str
    record = make()
    block = record.as_dict()
    assert list(block) == list(type(record).FIELD_NAMES)
    for name, got in block.items():
        value = getattr(record, name)
        if isinstance(value, int):
            assert type(got) is int and got == value
        elif not isinstance(value, tuple):
            assert got == str(value)
    if "h" in block:
        assert block["h"] == [[str(c) for c in row] for row in record.h]
        assert all(type(row) is list and all(type(c) is str for c in row) for row in block["h"])


class TestOperatorForms:
    def test_leading_coefficient(self):
        p = HeunParams(a=2, q=0, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        assert build_expanded(p).coeff(2) == Polynomial([0, 2, -3, 1])

    def test_first_order_coefficient_is_true_clearing(self):
        # gamma = delta = epsilon = 1, a = 2: the cleared first-order part is
        # (z-1)(z-2) + z(z-2) + z(z-1) = 3z^2 - 6z + 2.  Evaluating at the
        # singular point 1 must give delta * 1 * (1-a) = -1, which pins the
        # middle coefficient to -((1+a)g + a d + e) = -6 (not -5).
        p = HeunParams(a=2, q=0, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        first = build_expanded(p).coeff(1)
        assert first == Polynomial([2, -6, 3])
        assert first.eval(CR_ONE) == CRat(-1)

    def test_zero_order_part(self):
        p = HeunParams(a=2, q=0, alpha=0, beta=7, gamma=1, delta=1, epsilon=1)
        assert build_expanded(p).coeff(0) == Polynomial.zero()

    def test_no_first_order_when_gde_zero(self):
        p = HeunParams(a=2, q=3, alpha=1, beta=2, gamma=0, delta=0, epsilon=0)
        L = build_canonical_cleared(p)
        assert L.coeff(1) == Polynomial.zero()
        assert L.coeff(0) == Polynomial([-3, 2])

    def test_cleared_equals_expanded_random(self):
        rng = random.Random(59)
        for _ in range(40):
            p = rand_params(rng, constrained=False)
            assert build_canonical_cleared(p) == build_expanded(p)

    def test_both_routes_agree_on_application(self):
        p = HeunParams(a=2, q=0, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        f = Polynomial.monomial(2)
        assert op_apply(build_canonical_cleared(p), f) == op_apply(build_expanded(p), f)


class TestIndicial:
    @pytest.mark.parametrize("gamma", [Fraction(1, 2), Fraction(2), Fraction(3)])
    def test_exponents_at_zero(self, gamma):
        p = HeunParams(a=2, q=1, alpha=1, beta=1, gamma=gamma,
                       delta=Fraction(1, 3), epsilon=Fraction(1, 5))
        pair = indicial_exponents(build_expanded(p), CR_ZERO)
        assert surds_match(pair, (Surd(0), Surd(CRat(1 - gamma))))

    def test_exponents_at_one_and_a(self):
        rng = random.Random(61)
        for _ in range(20):
            p = rand_params(rng)
            L = build_expanded(p)
            assert surds_match(indicial_exponents(L, CR_ONE),
                               (Surd(0), Surd(CR_ONE - p.delta)))
            assert surds_match(indicial_exponents(L, p.a),
                               (Surd(0), Surd(CR_ONE - p.epsilon)))

    def test_exponents_at_infinity(self):
        rng = random.Random(67)
        for _ in range(20):
            p = rand_params(rng, constrained=True)
            pair = indicial_exponents(build_expanded(p), INFINITY)
            assert surds_match(pair, (Surd(p.alpha), Surd(p.beta)))

    def test_vieta_at_zero(self):
        rng = random.Random(71)
        for _ in range(30):
            p = rand_params(rng)
            e1, e2 = indicial_exponents(build_expanded(p), CR_ZERO)
            assert e1 + e2 == Surd(CR_ONE - p.gamma)
            assert e1 * e2 == Surd(0)

    def test_irrational_exponents_stay_exact(self):
        # gamma chosen so 1 - gamma is irrationally split at infinity instead:
        # at 0 the pair is always {0, 1-gamma}; check a surd case via a
        # crafted operator z^2 D^2 + z D - 2 (indicial r^2 - 2 = 0)
        L = DiffOp([Polynomial([-2]), Polynomial.variable(),
                    Polynomial.monomial(2)])
        e1, e2 = indicial_exponents(L, CR_ZERO)
        assert not e1.is_exact()
        assert e1 + e2 == Surd(0)
        assert e1 * e2 == Surd(-2)

    def test_not_regular_singular(self):
        p = HeunParams(a=2, q=1, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        L = build_expanded(p)
        with pytest.raises(NotRegularSingular):
            indicial_exponents(L, CRat(5))  # ordinary point
        with pytest.raises(NotRegularSingular):
            indicial_exponents(DiffOp([0, 0, 1]), CR_ZERO)  # no singularity at all
        with pytest.raises(NotRegularSingular):
            indicial_exponents(DiffOp.d(), CR_ZERO)  # wrong order

    def test_irregular_singularity_rejected(self):
        # z^2 D^2 + D has a double zero of the lead but the first-order part
        # violates the order condition (valuation 0 < 1)
        L = DiffOp([Polynomial.zero(), Polynomial.one(), Polynomial.monomial(2)])
        with pytest.raises(NotRegularSingular):
            indicial_exponents(L, CR_ZERO)

    def test_complex_parameters_exact(self):
        p = HeunParams(a=2, q=1, alpha=1, beta=1, gamma=CRat(1, 1), delta=1, epsilon=1)
        pair = indicial_exponents(build_expanded(p), CR_ZERO)
        assert surds_match(pair, (Surd(0), Surd(CRat(0, -1))))  # 1 - (1+i) = -i

    def test_complex_radicand_stays_symbolic(self):
        # z^2 D^2 + z D + i: indicial r^2 + i = 0, roots +-sqrt(-i)
        L = DiffOp([Polynomial([CRat(0, 1)]), Polynomial.variable(), Polynomial.monomial(2)])
        e1, e2 = indicial_exponents(L, CR_ZERO)
        assert not e1.is_exact()
        assert e1 * e2 == Surd(CRat(0, 1))
        assert e1 + e2 == Surd(0)
        assert abs(complex(e1) ** 2 + complex(CRat(0, 1))) < 1e-12

    def test_gauss_type_operator_cross_check(self):
        # independent three-singular-point family:
        # z(1-z) D^2 + [c - (a+b+1) z] D - ab, exponents {0, 1-c} at 0,
        # {0, c-a-b} at 1 and {a, b} at infinity
        rng = random.Random(211)
        for _ in range(20):
            av = rand_fraction(rng)
            bv = rand_fraction(rng)
            cv = rand_fraction(rng)
            L = DiffOp(
                [
                    Polynomial([-av * bv]),
                    Polynomial([cv, -(av + bv + 1)]),
                    Polynomial([0, 1, -1]),
                ]
            )
            assert surds_match(indicial_exponents(L, CR_ZERO),
                               (Surd(0), Surd(CRat(1 - cv))))
            assert surds_match(indicial_exponents(L, CR_ONE),
                               (Surd(0), Surd(CRat(cv - av - bv))))
            assert surds_match(indicial_exponents(L, INFINITY),
                               (Surd(CRat(av)), Surd(CRat(bv))))

    def test_published_exponent_table_discrepancies(self):
        p = HeunParams(a=2, q=1, alpha=Fraction(1, 2), beta=Fraction(1, 3),
                       gamma=Fraction(1, 5), delta=Fraction(1, 7),
                       epsilon=Fraction(1, 2) + Fraction(1, 3) + 1 - Fraction(1, 5) - Fraction(1, 7))
        rep = Analysis(0, p).indicial_rows()
        assert rep.residual("exponent_at_0_first") == CR_ZERO
        assert rep.residual("exponent_at_0_second") == CR_ZERO
        assert rep.residual("exponent_at_1_first") == CR_ONE
        assert rep.residual("exponent_at_a_first") == p.a
        assert rep.residual("exponent_at_1_second") == CR_ZERO
        assert rep.residual("exponent_at_inf_product") == CR_ZERO


fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=3)
crat_st = st.one_of(st.builds(CRat, fractions_st), st.builds(CRat, fractions_st, fractions_st))


def poly_st(max_deg):
    return st.lists(crat_st, max_size=max_deg + 1).map(Polynomial)


@st.composite
def op_and_point_st(draw):
    """A second-order operator with coefficient degree <= 4 and a finite
    point; half the time the point is a root of the leading coefficient of
    multiplicity 1 or 2, and then the lower coefficients may carry the
    powers of ``z - z0`` that make it regular singular."""
    z0 = draw(crat_st)
    p1, p0 = draw(poly_st(4)), draw(poly_st(4))
    if draw(st.booleans()):
        m = draw(st.integers(1, 2))
        root = Polynomial([-z0, CR_ONE])
        p2 = root**m * draw(poly_st(4 - m).filter(lambda p: not p.is_zero()))
        if draw(st.booleans()):
            p1 = root ** (m - 1) * draw(poly_st(5 - m))
            p0 = root ** max(m - 2, 0) * draw(poly_st(4))
    else:
        p2 = draw(poly_st(4).filter(lambda p: not p.is_zero()))
    return DiffOp([p0, p1, p2]), z0


def _indicial_outcome(fn, L, point):
    try:
        return [str(e) for e in fn(L, point)]
    except NotRegularSingular as exc:
        return ("NotRegularSingular", str(exc))


class TestIndicialAgainstOperatorTransform:
    @given(op_and_point_st())
    @example((DiffOp([Polynomial([-2]), Polynomial.variable(), Polynomial.monomial(2)]), CR_ZERO))
    @example((build_expanded(es_params(4)), CRat(2)))
    @settings(max_examples=150, deadline=None)
    def test_local_lists_match_the_transformed_operator(self, case):
        # the same two exponent strings in the same order, or the same
        # refusal, as the route that rebuilds the operator under z -> 1/w
        L, z0 = case
        for point in (z0, INFINITY):
            assert _indicial_outcome(indicial_exponents, L, point) == _indicial_outcome(
                reference_indicial_exponents, L, point
            )


class TestUEACoefficients:
    def test_raising_coefficient_under_constraint(self):
        rng = random.Random(73)
        for _ in range(20):
            p = rand_params(rng, constrained=True)
            for n in (-2, 0, 1, 3):
                j = Fraction(n, 2)
                c = uea_heun_coeffs(j, p)
                assert c.c_plus == p.alpha + p.beta + CRat(3 * j) - CRat(Fraction(1, 2))

    def test_lowering_coefficient_at_half_spin(self):
        p = HeunParams(a=5, q=1, alpha=1, beta=1, gamma=Fraction(2, 3),
                       delta=1, epsilon=1)
        c = uea_heun_coeffs(Fraction(1, 2), p)
        assert c.c_minus == p.a * p.gamma

    def test_membership_residual_at_zero_spin(self):
        p = HeunParams(a=2, q=1, alpha=3, beta=5, gamma=1, delta=1, epsilon=1)
        rep = Analysis(0, p).theorem1_rows()
        row = next(r for r in rep if r.name == "qes_membership_condition")
        assert row.paper == p.alpha * p.beta  # printed residual reduces to ab at j=0
        assert row.oracle == p.alpha * p.beta  # expansion ab-product is 0 at j=0

    def test_es_condition_examples(self):
        p = HeunParams(a=2, q=1, alpha=-2, beta=1, gamma=1, delta=1, epsilon=1)
        assert es_condition(Fraction(1, 2), p) == CR_ZERO
        p2 = HeunParams(a=2, q=1, alpha=Fraction(1, 4), beta=Fraction(1, 4),
                        gamma=1, delta=1, epsilon=1)
        assert es_condition(0, p2) == CR_ZERO
        p3 = HeunParams(a=2, q=1, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        assert es_condition(0, p3) == CRat(Fraction(3, 2))


#: the theorem-1 rows whose residual vanishes under the parameter constraint
GENERAL_ROWS = ("rho_general", "rho_constraint_form", "sigma_general", "tau_general",
                "ab_product_general", "jplus_coefficient")
small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestVerifyTheorem1:
    def test_zero_residual_rows(self):
        rng = random.Random(79)
        for _ in range(10):
            p = rand_params(rng, constrained=True)
            n = rng.randint(-3, 4)
            rep = Analysis(n, p).theorem1_rows()
            for name in GENERAL_ROWS:
                assert rep.residual(name) == CR_ZERO, name

    @given(small_fractions.filter(lambda a: a not in (0, 1)),
           st.lists(small_fractions, min_size=5, max_size=5), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_general_rows_vanish_under_the_constraint(self, a, rest, n):
        q, alpha, beta, gamma, delta = rest
        p = HeunParams(a, q, alpha, beta, gamma, delta, alpha + beta + 1 - gamma - delta)
        rep = Analysis(n, p).theorem1_rows()
        assert {name: rep.residual(name) for name in GENERAL_ROWS} == dict.fromkeys(
            GENERAL_ROWS, CR_ZERO
        )

    def test_halfspin_residual_closed_forms(self):
        rng = random.Random(83)
        for _ in range(10):
            p = rand_params(rng, constrained=True)
            n = rng.randint(-3, 4)
            rep = Analysis(n, p).theorem1_rows()
            ncr = CRat(n)
            assert rep.residual("sigma_halfspin") == (CR_ONE + p.a) * (CR_ONE - ncr)
            assert rep.residual("tau_halfspin") == p.a * (ncr - CR_ONE) / CRat(2)

    def test_ab_residual_tracks_constraint(self):
        rng = random.Random(89)
        for _ in range(10):
            p = rand_params(rng, constrained=False)
            n = rng.randint(-3, 4)
            j = Fraction(n, 2)
            rep = Analysis(n, p).theorem1_rows()
            assert rep.residual("ab_product_general") == CRat(-2 * j) * p.constraint_residual

    def test_eq3_row_isolates_middle_coefficient(self):
        rng = random.Random(97)
        for _ in range(10):
            p = rand_params(rng)
            rep = Analysis(0, p).theorem1_rows()
            assert rep.residual("eq3_linear_z_coeff") == p.delta * (p.a - CR_ONE)

    def test_expansion_self_consistency(self):
        rng = random.Random(101)
        for _ in range(5):
            p = rand_params(rng, constrained=False)
            n = rng.randint(-2, 4)
            j = Fraction(n, 2)
            L = uea_expand(uea_heun(j, p), j)
            reassembled = extract_expanded_coeffs(L, p.a).assemble(p.a)
            for _ in range(10):
                f = rand_poly(rng, max_deg=10)
                assert op_apply(L, f) == op_apply(reassembled, f)


class TestESOperator:
    def test_published_reduced_values(self):
        p = HeunParams(a=2, q=1, alpha=1, beta=1, gamma=Fraction(1, 3),
                       delta=1, epsilon=1)
        # printed rho = 3(1-n)/2 and printed ab = n(n-1)/2 agree with the
        # expansion exactly
        for n, rho, ab in ((0, Fraction(3, 2), 0), (1, 0, 0), (2, Fraction(-3, 2), 1)):
            got = Analysis(n, p).es_coeffs
            assert got.rho == CRat(rho)
            assert got.abProduct == CRat(ab)
            rep = Analysis(n, p).es_rows()
            assert rep.residual("es_rho") == CR_ZERO
            assert rep.residual("es_ab_product") == CR_ZERO

    def test_statement_eigenvalue_equals_corner_entry(self):
        rng = random.Random(103)
        for _ in range(8):
            n = rng.randint(0, 5)
            p = rand_params(rng, constrained=False)
            rep = Analysis(n, p).es_rows()
            assert rep.residual("E_statement_vs_entry00") == CR_ZERO

    def test_vanishing_raising_condition_collapses_to_es_operator(self):
        for n in range(0, 7):
            p = es_params(n)
            j = Fraction(n, 2)
            assert es_condition(j, p) == CR_ZERO
            coeffs = uea_heun_coeffs(j, p)
            assert coeffs.c_plus == CR_ZERO
            full = uea_expand(uea_heun(j, p), j)
            assert full == Analysis(n, p).es_operator


class TestQESMatrix:
    def test_euler_operator_diagonal(self):
        zd = DiffOp.from_term(Polynomial.variable(), 1)
        M = qes_matrix(zd, 2)
        assert M == ((CR_ZERO, CR_ZERO, CR_ZERO),
                     (CR_ZERO, CR_ONE, CR_ZERO),
                     (CR_ZERO, CR_ZERO, CRat(2)))
        assert is_lower_triangular(M) and is_upper_triangular(M)

    def test_generic_heun_overflows(self):
        p = HeunParams(a=2, q=1, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        with pytest.raises(OverflowColumn) as exc:
            qes_matrix(build_expanded(p), 3)
        assert exc.value.column == 3

    def test_refused_bound_allocates_no_dense_matrix(self):
        # the overflow is only found at the last column; a dense 3001^2
        # matrix of references alone would take 72 MB
        import tracemalloc

        p = HeunParams(a=2, q=1, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        L = build_expanded(p)
        tracemalloc.start()
        try:
            with pytest.raises(OverflowColumn) as exc:
                qes_matrix(L, 3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.column == 3000
        assert peak < 8 * 2**20

    def test_es_matrix_survives_exactly_on_its_module(self):
        p = es_params(2)
        M = qes_matrix(Analysis(2, p).es_operator, 2)
        assert len(M) == 3
        for bad_N in (0, 1, 3, 4, 12):
            with pytest.raises(OverflowColumn):
                qes_matrix(Analysis(2, p).es_operator, bad_N)

    def test_es_matrix_entries_match_band_formulas(self):
        # on the invariant module the matrix is tridiagonal with
        #   raising  M[m+1][m] = m(m-1) + rho m + ab
        #   diagonal M[m][m]   = -(1+a) m(m-1) + sigma m + C
        #   lowering M[m-1][m] = a m(m-1) + tau m
        p = es_params(3, gamma=Fraction(2, 5), delta=Fraction(-1, 3))
        n = 3
        c = Analysis(n, p).es_coeffs
        C = -c.qShift
        M = qes_matrix(Analysis(n, p).es_operator, n)
        for m in range(n + 1):
            mc = CRat(m)
            diag = -(CR_ONE + p.a) * mc * (mc - CR_ONE) + c.sigma * mc + C
            assert M[m][m] == diag
            if m + 1 <= n:
                raising = mc * (mc - CR_ONE) + c.rho * mc + c.abProduct
                assert M[m + 1][m] == raising
            if m >= 1:
                lowering = p.a * mc * (mc - CR_ONE) + c.tau * mc
                assert M[m - 1][m] == lowering
        # all other entries vanish
        for r in range(n + 1):
            for col in range(n + 1):
                if abs(r - col) > 1:
                    assert M[r][col] == CR_ZERO

    def test_triangular_cases(self):
        # n = 0: 1x1, trivially triangular; eigenvalue is the constant term
        p0 = es_params(0)
        M0 = qes_matrix(Analysis(0, p0).es_operator, 0)
        assert is_lower_triangular(M0)
        assert matrix_spectrum(M0)[2] == [-Analysis(0, p0).es_coeffs.qShift]
        # n = 1: the raising band vanishes (ab = 0, rho = 0), upper-triangular
        p1 = es_params(1)
        M1 = qes_matrix(Analysis(1, p1).es_operator, 1)
        assert is_upper_triangular(M1)
        assert not is_lower_triangular(M1)  # lowering entry tau survives
        assert matrix_spectrum(M1)[2] == matrix_diagonal(M1)

    def test_diagonal_matrix_when_tau_vanishes(self):
        # n = 1 with gamma = 0 makes tau = a(gamma - n + 1) = 0: diagonal
        p = es_params(1, gamma=Fraction(0))
        M = qes_matrix(Analysis(1, p).es_operator, 1)
        assert is_lower_triangular(M) and is_upper_triangular(M)

    def test_float_spectrum_matches_characteristic_polynomial(self):
        p = es_params(2)
        n = 2
        M = qes_matrix(Analysis(n, p).es_operator, n)
        assert not is_lower_triangular(M) and not is_upper_triangular(M)
        spectrum = matrix_spectrum(M)[2]
        charpoly = _charpoly(M)
        scale = max(abs(complex(c)) for c in charpoly.coeffs)
        for lam in spectrum:
            assert abs(complex(charpoly.eval(lam))) <= 1e-9 * scale * max(1.0, abs(lam)) ** 3

    def test_trace_and_determinant_invariants(self):
        # spectral symmetric functions agree with exact matrix invariants
        p = es_params(3, gamma=Fraction(1, 7))
        n = 3
        M = qes_matrix(Analysis(n, p).es_operator, n)
        spectrum = matrix_spectrum(M)[2]
        tr = sum(complex(x) for x in matrix_diagonal(M))
        assert sum(spectrum) == pytest.approx(tr, rel=1e-9, abs=1e-9)

    def test_large_module_spectrum_trace(self):
        p = es_params(6, gamma=Fraction(3, 4), delta=Fraction(-2, 5))
        n = 6
        M = qes_matrix(Analysis(n, p).es_operator, n)
        spectrum = matrix_spectrum(M)[2]
        assert len(spectrum) == 7
        tr = sum(complex(x) for x in matrix_diagonal(M))
        scale = max(abs(complex(x)) for row in M for x in row)
        assert abs(sum(spectrum) - tr) <= 1e-9 * max(1.0, scale)


def _charpoly(M) -> Polynomial:
    """det(lambda I - M) by cofactor expansion over Polynomial entries."""
    size = len(M)
    lam = Polynomial.variable()
    rows = [
        [
            (lam if r == c else Polynomial.zero()) - Polynomial([M[r][c]])
            for c in range(size)
        ]
        for r in range(size)
    ]
    return _poly_det(rows)


def _poly_det(rows):
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = Polynomial.zero()
    for c in range(size):
        minor = [[rows[r][cc] for cc in range(size) if cc != c] for r in range(1, size)]
        term = rows[0][c] * _poly_det(minor)
        total = total + (term if c % 2 == 0 else -term)
    return total


class TestGoldenReport:
    def test_discrepancy_report_matches_golden(self):
        path = GOLDEN / "theorem1_n2.json"
        recorded = json.loads(path.read_text())
        p = HeunParams(**recorded["params"])
        n = recorded["n"]
        ctx = Analysis(n, p)
        rows = ctx.theorem1_rows().as_list()
        rows += ctx.es_rows().as_list()
        assert rows == recorded["discrepancies"]

    def test_golden_operator_text_is_printed(self):
        path = GOLDEN / "theorem1_n2.json"
        recorded = json.loads(path.read_text())
        p = HeunParams(**recorded["params"])
        assert str(Analysis(recorded["n"], p).es_operator) == recorded["es_operator"]
