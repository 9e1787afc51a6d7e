import math
import random
from fractions import Fraction

import pytest

from heunlie.algpoly import CR_ONE, CR_ZERO, CRat, Polynomial, Surd, quadratic_roots
from heunlie.distsol import (
    CoeffSequence,
    DegenerateLeading,
    NonIntegerExponents,
    RecurrenceSpec,
    closed_form_roots_imag,
    closed_form_roots_real,
    forward_imag,
    forward_real,
    paper_ck,
    recur_imag,
    recur_real,
    residual_check,
    weight_expansion,
    _ff,
)
from util import rand_fraction, reference_reassembled


class TestFallingFactorial:
    def test_examples(self):
        assert _ff(5, 2) == 20
        assert _ff(3, 4) == 0
        for k in (-7, -1, 0, 4, 12):
            assert _ff(k, 0) == 1

    def test_negative_base(self):
        assert _ff(-2, 3) == (-2) * (-3) * (-4)
        for k in range(-8, 0):
            for m in range(0, 8):
                assert _ff(k, m) == math.prod(range(k, k - m, -1))

    def test_factorial_identity(self):
        for k in range(0, 10):
            for m in range(0, k + 1):
                assert _ff(k, m) == math.factorial(k) // math.factorial(k - m)

    def test_zero_exactly_on_short_range(self):
        for k in range(0, 8):
            for m in range(0, 10):
                assert (_ff(k, m) == 0) == (k < m)

    def test_rejects_negative_order(self):
        for k in (-2, 0, 3):
            with pytest.raises(ValueError):
                _ff(k, -1)


class TestWeightExpansion:
    def test_single_entry(self):
        w = weight_expansion(3, 1, 1, CRat(2))
        assert w.h == ((CR_ONE,),)
        assert reference_reassembled(w) == Polynomial.monomial(2)
        assert w.value_at_zero() == CR_ZERO

    def test_two_by_two_table(self):
        w = weight_expansion(1, 2, 2, CRat(2))
        assert w.h[0][0] == CRat(2)
        assert w.h[0][1] == CRat(-1)
        assert w.h[1][0] == CRat(-2)
        assert w.h[1][1] == CR_ONE
        # (z-1)(z-2) = z^2 - 3z + 2
        assert reference_reassembled(w) == Polynomial([2, -3, 1])

    def test_reassembly_identity_random(self):
        rng = random.Random(107)
        z = Polynomial.variable()
        for _ in range(50):
            rho = rng.randint(1, 5)
            sigma = rng.randint(1, 5)
            tau = rng.randint(1, 5)
            while True:
                a = rand_fraction(rng, nonzero=True)
                if a != 1:
                    break
            w = weight_expansion(rho, sigma, tau, CRat(a))
            product = (
                Polynomial.monomial(rho - 1)
                * (z - Polynomial.one()) ** (sigma - 1)
                * (z - Polynomial([a])) ** (tau - 1)
            )
            assert reference_reassembled(w) == product

    def test_reassembly_identity_exhaustive_small(self):
        z = Polynomial.variable()
        for a in (CRat(2), CRat(Fraction(-3, 2))):
            for sigma in range(1, 7):
                for tau in range(1, 7):
                    for rho in (1, 3):
                        w = weight_expansion(rho, sigma, tau, a)
                        product = (
                            Polynomial.monomial(rho - 1)
                            * (z - Polynomial.one()) ** (sigma - 1)
                            * (z - Polynomial([a])) ** (tau - 1)
                        )
                        assert reference_reassembled(w) == product

    def test_rejects_bad_exponents(self):
        for bad in (0, -1):
            with pytest.raises(NonIntegerExponents):
                weight_expansion(bad, 1, 1, CRat(2))
        with pytest.raises(NonIntegerExponents):
            weight_expansion(1, CRat(Fraction(3, 2)), 1, CRat(2))
        with pytest.raises(ValueError):
            weight_expansion(1, 1, 1, CRat(1))


SPEC_A = RecurrenceSpec.make(l=1, a=2, rho=1, sigma=1, tau=1, ab=1, E=1)


class TestRecurrences:
    def test_homogeneity(self):
        assert recur_real(SPEC_A, 0, 0, 3) == CR_ZERO
        assert recur_imag(SPEC_A, 0, 0, 3) == CR_ZERO

    def test_degenerate_boundary_real(self):
        spec = RecurrenceSpec.make(l=4, a=2, rho=1, sigma=1, tau=1, ab=1, E=1)
        for k in range(2, 10):
            if k < spec.l:
                with pytest.raises(DegenerateLeading):
                    recur_real(spec, 1, 1, k)
            else:
                recur_real(spec, 1, 1, k)

    def test_degenerate_boundary_imag(self):
        spec = RecurrenceSpec.make(l=5, a=2, rho=1, sigma=1, tau=1, ab=1, E=1)
        for k in range(2, 10):
            if k < spec.l - 1:
                with pytest.raises(DegenerateLeading):
                    recur_imag(spec, 1, 1, k)
            else:
                recur_imag(spec, 1, 1, k)

    def test_zero_scalars_degenerate(self):
        spec = RecurrenceSpec.make(l=1, a=2, rho=1, sigma=1, tau=1, ab=0, E=0)
        with pytest.raises(DegenerateLeading):
            recur_real(spec, 1, 0, 5)
        with pytest.raises(DegenerateLeading):
            recur_imag(spec, 1, 0, 5)

    def test_degenerate_texts(self):
        # the texts land in the error fields of distsol reports; a residual
        # row needs its C too, so a hand-built sequence meets the same refusal
        zero = RecurrenceSpec.make(l=2, ab=0, E=0)
        short = RecurrenceSpec.make(l=3, ab=1, E=1)
        solved = "; c_k is not determined here"
        for call, text in (
            (lambda: forward_real(zero, 1, 0, 4), "ab * (k)_l = 0 at k=2, l=2" + solved),
            (lambda: forward_imag(zero, 1, 0, 4), "E * (k)_(l-1) = 0 at k=2, l=2" + solved),
            (lambda: recur_real(short, 1, 0, 2), "ab * (k)_l = 0 at k=2, l=3" + solved),
            (lambda: recur_imag(short, 1, 0, Fraction(1)), "E * (k)_(l-1) = 0 at k=1, l=3" + solved),
            (lambda: closed_form_roots_real(zero, Fraction(4, 2)), "ab * (k)_l = 0 at k=2, l=2"),
            (lambda: closed_form_roots_imag(zero, 0), "E * (k)_(l-1) = 0 at k=0, l=2"),
            (lambda: residual_check(CoeffSequence((CR_ONE,) * 4), zero, "real"),
             "ab * (k)_l = 0 at k=2, l=2"),
        ):
            with pytest.raises(DegenerateLeading) as exc:
                call()
            assert str(exc.value) == text

    def test_worked_example_real(self):
        c2 = recur_real(SPEC_A, CRat(1), CRat(0), 2)
        assert c2 == CRat(-8)
        seq = CoeffSequence((CRat(1), CRat(0), c2))
        assert residual_check(seq, SPEC_A, "real") == [(2, CR_ZERO)]

    def test_worked_example_imag(self):
        spec = RecurrenceSpec.make(l=1, a=1, rho=0, sigma=0, tau=0, ab=0, E=1)
        assert recur_imag(spec, CRat(1), CRat(0), 3) == CRat(35)

    def test_forward_residuals_vanish(self):
        rng = random.Random(109)
        for _ in range(6):
            spec = RecurrenceSpec.make(
                l=rng.randint(1, 3),
                a=rand_fraction(rng, nonzero=True) or 2,
                rho=rand_fraction(rng),
                sigma=rand_fraction(rng),
                tau=rand_fraction(rng),
                ab=rand_fraction(rng, nonzero=True),
                E=rand_fraction(rng, nonzero=True),
            )
            seq_r = forward_real(spec, 1, 0, 32)
            assert all(res == CR_ZERO for _, res in residual_check(seq_r, spec, "real"))
            seq_i = forward_imag(spec, 1, 0, 32)
            assert all(res == CR_ZERO for _, res in residual_check(seq_i, spec, "imag"))

    def test_l_validation(self):
        with pytest.raises(ValueError):
            RecurrenceSpec.make(l=0, ab=1, E=1)

    @pytest.mark.parametrize("forward", [forward_real, forward_imag])
    def test_truncation_below_one_is_refused(self, forward):
        spec = RecurrenceSpec.make(l=1, ab=1, E=1)
        with pytest.raises(ValueError, match="^truncation K must be at least 1$"):
            forward(spec, 1, 0, 0)

    def test_residual_check_refusals(self):
        spec = RecurrenceSpec.make(l=1, ab=1, E=1)
        with pytest.raises(ValueError, match="^need at least c_0, c_1, c_2 "):
            residual_check(CoeffSequence((CR_ONE, CR_ZERO)), spec, "real")
        seq = forward_real(spec, 1, 0, 4)
        with pytest.raises(ValueError, match="^branch must be 'real' or 'imag', got 'both'$"):
            residual_check(seq, spec, "both")


class TestClosedFormRootsReal:
    def test_roots_solve_quadratic_exactly(self):
        rng = random.Random(113)
        checked = 0
        while checked < 10:
            spec = RecurrenceSpec.make(
                l=rng.randint(1, 3),
                a=rand_fraction(rng, nonzero=True) or 2,
                rho=rand_fraction(rng),
                sigma=rand_fraction(rng),
                tau=rand_fraction(rng),
                ab=rand_fraction(rng, nonzero=True),
                E=1,
            )
            for k in range(spec.l, spec.l + 3):
                center, spread = closed_form_roots_real(spec, k)
                A, B, C = _real_quadratic(spec, k)
                for root in (Surd.from_value(center) + spread, Surd.from_value(center) - spread):
                    val = Surd.from_value(C) * root * root - Surd.from_value(B) * root + Surd.from_value(A)
                    assert val == Surd(0)
                checked += 1

    def test_matches_generic_quadratic_solver(self):
        k = 2
        center, spread = closed_form_roots_real(SPEC_A, k)
        A, B, C = _real_quadratic(SPEC_A, k)
        r1, r2 = quadratic_roots(C, -B, A)
        got = {Surd.from_value(center) + spread, Surd.from_value(center) - spread}
        assert got == {r1, r2}

    def test_double_root_case(self):
        # ab chosen so the discriminant vanishes: B^2 = 4 C' A with
        # C' = ab (k)_l at k=2, l=1, rho=tau=1, a=2
        spec = RecurrenceSpec.make(l=1, a=2, rho=1, sigma=0, tau=1,
                                   ab=Fraction(25, 128), E=1)
        center, spread = closed_form_roots_real(spec, 2)
        assert spread == Surd(0)

    def test_degenerate(self):
        with pytest.raises(DegenerateLeading):
            closed_form_roots_real(SPEC_A, 0)


class TestClosedFormRootsImag:
    def test_sigma_zero_centers_at_origin(self):
        spec = RecurrenceSpec.make(l=1, a=2, rho=1, sigma=0, tau=1, ab=1, E=3)
        center, _ = closed_form_roots_imag(spec, 4)
        assert center == CR_ZERO

    def test_worked_example(self):
        spec = RecurrenceSpec.make(l=1, a=2, rho=0, sigma=2, tau=0, ab=0, E=2)
        center, _ = closed_form_roots_imag(spec, 2)
        assert center == CRat(-3)

    def test_substitution_residual_closed_form(self):
        # the printed spread omits the conventional 1/2, so substituting
        # center +- spread into C t^2 + B t - A leaves exactly
        # B^2/C - 5A -+ (B/C) sqrt(disc)
        rng = random.Random(127)
        for _ in range(8):
            spec = RecurrenceSpec.make(
                l=rng.randint(1, 3),
                a=rand_fraction(rng, nonzero=True) or 2,
                rho=rand_fraction(rng),
                sigma=rand_fraction(rng, nonzero=True),
                tau=rand_fraction(rng),
                ab=1,
                E=rand_fraction(rng, nonzero=True),
            )
            k = spec.l + 1
            center, spread = closed_form_roots_imag(spec, k)
            A, B, C = _imag_quadratic(spec, k)
            disc = B * B - CRat(4) * C * A
            for sgn in (1, -1):
                t = Surd.from_value(center) + (spread if sgn > 0 else -spread)
                got = Surd.from_value(C) * t * t + Surd.from_value(B) * t - Surd.from_value(A)
                # expected residual: B^2/C - 5A -+ (B/C) sqrt(disc)
                expected = Surd(B * B / C - CRat(5) * A, CRat(-sgn) * B / C, disc)
                assert got == expected

    def test_conventional_roots_do_solve(self):
        spec = RecurrenceSpec.make(l=2, a=2, rho=1, sigma=3, tau=1, ab=1, E=2)
        k = 4
        A, B, C = _imag_quadratic(spec, k)
        for r in quadratic_roots(C, B, -A):
            assert Surd.from_value(C) * r * r + Surd.from_value(B) * r - Surd.from_value(A) == Surd(0)


def _real_quadratic(spec, k):
    """(A, B, C) of the real-branch quadratic C s^2 - B s + A = 0."""
    from heunlie.distsol import _real_brackets

    return _real_brackets(spec, k)


def _imag_quadratic(spec, k):
    """(A, B, C) of the imag-branch quadratic C t^2 + B t - A = 0."""
    from heunlie.distsol import _imag_brackets

    return _imag_brackets(spec, k)


class TestPaperCk:
    def test_constant_roots_give_geometric_sequence(self):
        r = CRat(Fraction(2, 3))

        def fixed_roots(spec, k):
            return r, Surd(0)

        seq = paper_ck(CRat(1), CRat(0), fixed_roots, SPEC_A, 6)
        assert list(seq.values) == [r ** k for k in range(7)]

    def test_average_of_powers(self):
        def roots(spec, k):
            return CRat(1), Surd(0, 1, 4)  # folds to 2: roots 3 and -1

        half = CRat(Fraction(1, 2))
        seq = paper_ck(half, half, roots, SPEC_A, 5)
        for k in range(6):
            assert seq[k] == (CRat(3) ** k + CRat(-1) ** k) * half

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            paper_ck(CRat(1), CRat(1), closed_form_roots_real, SPEC_A, 4)

    def test_real_branch_residual_report_nonzero(self):
        # k-dependent roots are not a solution of the recurrence in general:
        # the residual table is the deliverable
        seq = paper_ck(CRat(1), CRat(0), closed_form_roots_real, SPEC_A, 8,
                       start=SPEC_A.l)
        residuals = residual_check(seq, SPEC_A, "real")
        assert len(residuals) == 7
        assert any(abs(complex(res)) > 1e-6 for _, res in residuals)

    def test_default_start_propagates_from_zero(self):
        with pytest.raises(DegenerateLeading):
            paper_ck(CRat(1), CRat(0), closed_form_roots_real, SPEC_A, 8)

    def test_degenerate_propagates(self):
        spec = RecurrenceSpec.make(l=3, a=2, rho=1, sigma=1, tau=1, ab=1, E=1)
        with pytest.raises(DegenerateLeading):
            paper_ck(CRat(1), CRat(0), closed_form_roots_real, spec, 6)
