"""Verification suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its runtime (run ``pytest -s tests/test_acceptance.py``
to see every line).

Two criteria are implemented exactly as stated and are expected to fail;
both failures are mathematical properties of the stated constructions, not
implementation bugs:

* Criterion 1 expects the bracket of the raising and lowering generators to
  be ``+2 J0``.  With the generators ``(z^2 D - 2jz, zD - j, D)`` the bracket
  evaluates to ``-2 J0`` identically (apply both sides to 1 and to z), so one
  of the three expected relations has the wrong sign for every spin.  The
  other two relations hold exactly.

* Criterion 4 expects the raising-free operator's monomial-basis matrix to be
  lower-triangular for all bounds N <= 12.  That operator keeps its quadratic
  raising word, so its matrix on the spin module is tridiagonal: the lowering
  band ``M[m-1][m] = a m(m-1) + tau m`` would need ``tau = 0`` and ``a = 0``
  simultaneously to vanish for m = 1, 2, while off the module (N != n) the
  raising coefficient ``(N - n)(N - (n-1)/2)`` overflows the degree bound.
  No admissible parameters make either obstruction vanish.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

import pytest

from heunlie.algpoly import (
    CR_I,
    CR_ONE,
    CR_ZERO,
    CRat,
    DegenerateLeading,
    DegenerateQuadratic,
    HeunParams,
    OverflowColumn,
    Polynomial,
    Surd,
    commutator,
    op_apply,
)
from heunlie.distsol import (
    RecurrenceSpec,
    closed_form_roots_real,
    forward_imag,
    forward_real,
    paper_ck,
    recur_imag,
    recur_real,
    residual_check,
    weight_expansion,
)
from heunlie.greenssf import (
    Distribution,
    KernelScalars,
    green_kernel,
    monomial_times_delta,
    pair,
    ssf,
    symbol_coeffs,
    eta_roots,
)
from heunlie.heunop import (
    INFINITY,
    Analysis,
    build_canonical_cleared,
    build_expanded,
    indicial_exponents,
    is_lower_triangular,
    matrix_diagonal,
    matrix_spectrum,
    qes_matrix,
    uea_heun,
    extract_expanded_coeffs,
)
from heunlie.sl2rep import make_generators, uea_expand
from heunlie import cli
from util import es_params, rand_params, rand_poly, reference_real_brackets

GOLDEN = pathlib.Path(__file__).parent / "golden"


class _Criterion:
    def __init__(self, number, description, budget_s):
        self.number = number
        self.description = description
        self.budget_s = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status} ({elapsed:.2f}s / budget {self.budget_s}s) "
              f"{self.description}")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget: {elapsed:.2f}s"
            )
        return False


def test_criterion_1_commutation_suite():
    with _Criterion(1, "generator commutation relations, 2j in -4..4", 1.0):
        for n2 in range(-4, 5):
            j = Fraction(n2, 2)
            jp, j0, jm = make_generators(j)
            assert commutator(j0, jp) == jp, f"[J0,Jp] != Jp at 2j={n2}"
            assert commutator(j0, jm) == jm * CRat(-1), f"[J0,Jm] != -Jm at 2j={n2}"
            got = commutator(jp, jm)
            assert got == j0 * CRat(2), (
                f"[Jp,Jm] != 2*J0 at 2j={n2}: the realized bracket is "
                f"{'-2*J0' if got == j0 * CRat(-2) else str(got)} "
                "(sign fixed by applying both sides to the constant polynomial)"
            )


def test_criterion_2_operator_equality_suite():
    with _Criterion(2, "cleared canonical form equals expanded form, 120 draws", 5.0):
        rng = random.Random(2024)
        for _ in range(120):
            p = rand_params(rng, constrained=False)
            assert build_canonical_cleared(p) == build_expanded(p), repr(p)


def test_criterion_3_expansion_self_consistency_and_golden_report():
    with _Criterion(3, "expansion self-consistency + committed residual table", 10.0):
        rng = random.Random(3141)
        for _ in range(20):
            p = rand_params(rng, constrained=rng.random() < 0.5)
            n = rng.randint(-3, 5)
            j = Fraction(n, 2)
            L = uea_expand(uea_heun(j, p), j)
            reassembled = extract_expanded_coeffs(L, p.a).assemble(p.a)
            for _ in range(50):
                f = rand_poly(rng, max_deg=10)
                assert op_apply(L, f) == op_apply(reassembled, f)
        recorded = json.loads((GOLDEN / "theorem1_n2.json").read_text())
        p = HeunParams(**recorded["params"])
        ctx = Analysis(recorded["n"], p)
        rows = ctx.theorem1_rows().as_list()
        rows += ctx.es_rows().as_list()
        assert rows == recorded["discrepancies"], "residual table deviates from the golden file"


def test_criterion_4_es_triangularity():
    with _Criterion(4, "raising-free matrices lower-triangular for all N <= 12", 5.0):
        failures = []
        for n in range(0, 7):
            p = es_params(n)
            L = Analysis(n, p).es_operator
            for N in range(0, 13):
                try:
                    M = qes_matrix(L, N)
                except OverflowColumn as exc:
                    failures.append(f"n={n}, N={N}: {exc}")
                    continue
                if not is_lower_triangular(M):
                    failures.append(f"n={n}, N={N}: above-diagonal entry present")
                    continue
                if matrix_spectrum(M)[2] != matrix_diagonal(M):
                    failures.append(f"n={n}, N={N}: spectrum differs from diagonal")
        assert not failures, (
            f"{len(failures)} of 91 (n, N) cases violate lower-triangularity; "
            f"first counterexamples: {failures[:3]}"
        )


def test_criterion_5_indicial_suite():
    with _Criterion(5, "exponent pairs {0,1-g},{0,1-d},{0,1-e},{a,b}, 100 draws", 5.0):
        rng = random.Random(1618)
        for _ in range(100):
            p = rand_params(rng, constrained=True)
            L = build_expanded(p)
            for point, expected in (
                (CR_ZERO, {Surd(0), Surd(CR_ONE - p.gamma)}),
                (CR_ONE, {Surd(0), Surd(CR_ONE - p.delta)}),
                (p.a, {Surd(0), Surd(CR_ONE - p.epsilon)}),
                (INFINITY, {Surd(p.alpha), Surd(p.beta)}),
            ):
                e1, e2 = indicial_exponents(L, point)
                assert {e1, e2} == expected, f"point {point}: got {e1}, {e2}"


def test_criterion_6_recurrence_suite():
    with _Criterion(6, "forward residuals exact, degenerate range exact, root audit", 5.0):
        rng = random.Random(2718)
        # forward solves stay exactly on the recurrence up to K = 32
        for _ in range(6):
            spec = RecurrenceSpec(
                l=rng.randint(1, 3),
                a=Fraction(rng.randint(2, 5)),
                rho=Fraction(rng.randint(-4, 4)),
                sigma=Fraction(rng.randint(-4, 4)),
                tau=Fraction(rng.randint(-4, 4)),
                ab=Fraction(rng.randint(1, 5)),
                E=Fraction(rng.randint(1, 5)),
            )
            for seq, branch in ((forward_real(spec, 1, 0, 32), "real"),
                                (forward_imag(spec, 1, 0, 32), "imag")):
                assert all(r == CR_ZERO for _, r in residual_check(seq, spec, branch))
        # the degenerate range is exactly k < l (real) and k < l - 1 (imag)
        for l in range(1, 6):
            spec = RecurrenceSpec(l=l, a=2, rho=1, sigma=1, tau=1, ab=1, E=1)
            for k in range(2, 9):
                if k < l:
                    with pytest.raises(DegenerateLeading):
                        recur_real(spec, 1, 1, k)
                else:
                    recur_real(spec, 1, 1, k)
                if k < l - 1:
                    with pytest.raises(DegenerateLeading):
                        recur_imag(spec, 1, 1, k)
                else:
                    recur_imag(spec, 1, 1, k)
        # printed real-branch roots satisfy their quadratic exactly
        for _ in range(10):
            spec = RecurrenceSpec(
                l=rng.randint(1, 3), a=Fraction(rng.randint(2, 4)),
                rho=Fraction(rng.randint(-3, 3)), sigma=Fraction(rng.randint(-3, 3)),
                tau=Fraction(rng.randint(-3, 3)), ab=Fraction(rng.randint(1, 4)),
                E=Fraction(rng.randint(1, 4)),
            )
            k = spec.l + rng.randint(0, 2)
            center, spread = closed_form_roots_real(spec, k)
            A, B, C = reference_real_brackets(spec, k)
            for root in (Surd.from_value(center) + spread, Surd.from_value(center) - spread):
                assert Surd.from_value(C) * root * root - Surd.from_value(B) * root \
                    + Surd.from_value(A) == Surd(0)
        # the per-k closed form is audited, not assumed: emit its residual
        # table for 10 specs and require the audit to complete
        audited = 0
        for trial in range(10):
            spec = RecurrenceSpec(
                l=1, a=Fraction(trial + 2), rho=Fraction(trial - 4),
                sigma=Fraction(2), tau=Fraction(1), ab=Fraction(trial + 1),
                E=Fraction(1),
            )
            seq = paper_ck(CRat(1), CR_ZERO, closed_form_roots_real, spec, 12,
                           start=spec.l)
            table = residual_check(seq, spec, "real")
            assert len(table) == 11
            audited += 1
        assert audited == 10


def test_criterion_7_distribution_algebra():
    with _Criterion(7, "monomial-times-delta identity vs pairing oracle", 2.0):
        rng = random.Random(577)
        polys = [rand_poly(rng, max_deg=6) for _ in range(20)]
        for n in range(0, 9):
            for m in range(0, 9):
                d = monomial_times_delta(n, m)
                for phi in polys:
                    lhs = pair(d, phi)
                    rhs = CRat(-1 if m % 2 else 1) * (
                        (Polynomial.monomial(n) * phi).derivative(m).eval(CR_ZERO)
                    )
                    assert lhs == rhs


def test_criterion_8_green_ssf_suite():
    with _Criterion(8, "kernel prefactor, symbol coefficients, roots, norm, shift", 5.0):
        import math

        scal = KernelScalars(n=1, a=2, rho=1, sigma=3, tau=2)
        # prefactor == Taylor truncation of exp(i w), coefficientwise
        for p_bound in range(1, 9):
            gk = green_kernel(scalars=scal, p_override=p_bound)
            for m in range(1, p_bound + 1):
                assert gk.prefactor.coeff(m - 1) == CR_I ** (m - 1) / CRat(math.factorial(m - 1))
        # eps2(s) = -2 s^2 identically
        for m in range(1, 7):
            sc = symbol_coeffs(m, 2, scal)
            assert sc.eps2 == Polynomial([0, 0, -2])
        # eta roots satisfy their quadratic within 1e-10 relative residual
        rng = random.Random(883)
        checked = 0
        while checked < 100:
            m = rng.randint(1, 6)
            sc = symbol_coeffs(m, rng.randint(-2, 4), scal)
            s = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            try:
                roots = eta_roots(sc, s)
            except DegenerateQuadratic:
                continue
            e0, e1, e2 = (complex(sc.eps0.eval(s)), complex(sc.eps1.eval(s)),
                          complex(sc.eps2.eval(s)))
            scale = max(1.0, abs(e0), abs(e1), abs(e2))
            for r in roots:
                assert abs(e0 * r * r + e1 * r + e2) <= 1e-10 * scale * max(1.0, abs(r)) ** 2
            checked += 1
        # hs norm: |K_p|^2 |omega(0)|^2 with omega(0) = 0 exactly when rho > 1
        for rho, sigma, tau in ((2, 4, 2), (3, 5, 1), (4, 6, 3)):
            s2 = KernelScalars(n=1, a=2, rho=rho, sigma=sigma, tau=tau)
            assert weight_expansion(rho, sigma, tau, CRat(2)).value_at_zero() == CR_ZERO
            assert green_kernel(s2).hs_norm_sq() == 0
        s1 = KernelScalars(n=1, a=2, rho=1, sigma=3, tau=2)
        kernel = green_kernel(s1)
        kp = kernel.kp
        omega0 = weight_expansion(1, 3, 2, CRat(2)).value_at_zero()
        assert kernel.hs_norm_sq() == kp.abs2() * omega0.abs2()
        # the shift is piecewise constant with values {0, G/2, G}
        g = kernel.coincidence(CRat(2))
        for lam in (0.5, 2.0, 9.0):
            assert ssf(lam, g).scaled == g
        for lam in (-0.5, -2.0, -9.0):
            assert ssf(lam, g).scaled == Distribution.zero()
        assert ssf(0.0, g).scaled == g * CRat(Fraction(1, 2))


def test_criterion_9_cli_determinism(capsys):
    with _Criterion(9, "byte-identical JSON and the exit-code contract", 2.0):
        base = ["--a", "2", "--q", "0", "--alpha", "1", "--beta", "1",
                "--gamma", "1", "--delta", "1", "--epsilon", "1"]
        assert cli.main(["analyze", *base, "--n", "2"]) == 0
        out1 = capsys.readouterr().out
        assert cli.main(["analyze", *base, "--n", "2"]) == 0
        out2 = capsys.readouterr().out
        assert out1.encode() == out2.encode()
        assert json.loads(out1) == json.loads(out2)
        # exit-code contract on the three error scenarios
        assert cli.main(["analyze", "--a", "1", *base[2:]]) == 2
        capsys.readouterr()
        assert cli.main(["spectrum", *base, "--n", "1", "--N", "3"]) == 4
        capsys.readouterr()
        assert cli.main(["analyze", *base, "--n", "1",
                         "--out", "/nonexistent-dir/x.json"]) == 5
        capsys.readouterr()
