"""The closed forms (band flag matrix, kernel sums from integer moments,
weight value at 0), the zero-part fast paths of ``CRat`` arithmetic and the
shared recurrence brackets against the loop and textbook forms they replace,
which stay here as references."""

import json
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie import cli, distsol, greenssf
from heunlie.algpoly import (
    CRat,
    DegenerateLeading,
    DiffOp,
    HeunParams,
    OracleMismatch,
    OverflowColumn,
    Polynomial,
    Surd,
)
from heunlie.distsol import (
    CoeffSequence,
    RecurrenceSpec,
    _brackets,
    _numerators,
    closed_form_roots_imag,
    closed_form_roots_real,
    forward_imag,
    forward_real,
    paper_ck,
    residual_check,
    weight_expansion,
)
from heunlie.greenssf import (
    KernelScalars,
    green_coincidence,
    green_kernel,
    hs_norm_sq,
    kp_constant,
    weight_value_at_zero,
)
from heunlie.heunop import (
    _surd_product,
    es_operator,
    qes_matrix,
)
from util import (
    falling_factorial,
    reference_crat_op,
    reference_forward,
    reference_imag_brackets,
    reference_kernel_sum,
    reference_qes_matrix,
    reference_real_brackets,
    reference_reassembled,
    reference_residuals,
)

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)
real_st = st.builds(CRat, fractions_st)
crat_st = st.one_of(real_st, st.builds(CRat, fractions_st, fractions_st))
nonzero_st = crat_st.filter(lambda x: not x.is_zero())
nonzero_fraction_st = fractions_st.filter(bool)


def _same_matrix_or_overflow(L, N):
    try:
        expected = reference_qes_matrix(L, N)
    except OverflowColumn as ref:
        with pytest.raises(OverflowColumn) as got:
            qes_matrix(L, N)
        assert (got.value.column, got.value.degree, got.value.bound) == (
            ref.column, ref.degree, ref.bound,
        )
        return
    assert qes_matrix(L, N) == expected


@st.composite
def band_op_st(draw):
    """Operators of order <= 3 whose p_k have degree <= k + 1, so some keep a
    degree bound and some overflow it."""
    order = draw(st.integers(0, 3))
    terms = []
    for k in range(order + 1):
        deg = draw(st.integers(-1, k + 1))
        terms.append(Polynomial([draw(crat_st) for _ in range(deg + 1)]))
    return DiffOp(terms)


class TestBandMatrix:
    @given(band_op_st(), st.integers(0, 12))
    @example(DiffOp.zero(), 0)
    @example(DiffOp.zero(), 7)
    @settings(max_examples=150, deadline=None)
    def test_matches_column_by_column(self, L, N):
        _same_matrix_or_overflow(L, N)

    @given(
        st.integers(0, 12),
        st.integers(0, 12),
        nonzero_st.filter(lambda a: a != CRat(1)),
        st.lists(real_st, min_size=6, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_raising_free_operators(self, n, N, a, rest):
        # the raising terms cancel in column n: N = n keeps every column, and
        # N > n overflows at column n + 1
        L = es_operator(n, HeunParams(a, *rest))
        _same_matrix_or_overflow(L, N)


@st.composite
def kernel_scalars_st(draw):
    rho = draw(st.integers(1, 3))
    sigma = draw(st.integers(rho + 1, 8))
    tau = draw(st.integers(1, 6))
    a = draw(st.one_of(st.just(CRat(-1)), nonzero_st))
    return KernelScalars(draw(st.integers(-3, 5)), a, rho, sigma, tau)


# (scalars, p_override)
kernel_case_st = st.tuples(
    kernel_scalars_st(), st.one_of(st.none(), st.integers(1, 6), st.integers(7, 40)))


def _bound(scalars, p_override):
    rho, sigma, _ = scalars.integer_exponents()
    return sigma - rho if p_override is None else p_override


# dual points: real, imaginary, and with both parts nonzero
s_eval_st = st.one_of(
    crat_st,
    st.builds(CRat, st.just(0), fractions_st),
    st.builds(CRat, nonzero_fraction_st, nonzero_fraction_st),
)

GREEN_ARGV = ["green", "--a=3/2", "--q=0", "--alpha=1", "--beta=1", "--gamma=1",
              "--delta=1", "--epsilon=1", "--n=1", "--rho=1", "--sigma=5", "--tau=3",
              "--s-eval=1/2-3i", "--E=-2/3"]


class TestFactoredKernelSums:
    @given(kernel_case_st, s_eval_st)
    @example((KernelScalars(0, -1, 1, 3, 1), None), CRat(0, 1))
    @example((KernelScalars(2, -1, 1, 4, 3), 2), CRat(0))
    @example((KernelScalars(1, CRat(1, 2), 2, 5, 1), 4), CRat(0, -3))
    @example((KernelScalars(3, CRat(-5, 2), 3, 8, 6), 40), CRat(Fraction(-7, 4), 5))
    @example((KernelScalars(1, CRat(1, 3), 1, 2, 1), 40), CRat(Fraction(1, 2), -1))
    @settings(max_examples=120, deadline=None)
    def test_exact_equality(self, case, s_eval):
        scalars, p_override = case
        p = _bound(scalars, p_override)
        gk = green_kernel(scalars=scalars, s_eval=s_eval, p_override=p_override)
        assert gk.scalar == reference_kernel_sum(scalars, s_eval, p, with_factorial=True)
        assert gk.kp == reference_kernel_sum(scalars, s_eval, p, with_factorial=False)
        assert isinstance(gk.kp, CRat) and isinstance(gk.scalar, CRat)

    @given(kernel_scalars_st().filter(lambda scalars: scalars.a != CRat(1)), nonzero_st)
    @settings(max_examples=60, deadline=None)
    def test_one_offs_read_the_default_kernel(self, scalars, E):
        # the one-offs take neither the dual point nor the bound: each is
        # green_kernel's value at s = 0 over sigma - rho
        gk = green_kernel(scalars)
        assert kp_constant(scalars) == gk.kp
        assert hs_norm_sq(scalars) == gk.hs_norm_sq()
        assert green_coincidence(scalars, E) == gk.coincidence(E)

    @pytest.mark.parametrize("command", ["green", "ssf"])
    def test_report_builds_kp_once_and_no_symbol(self, monkeypatch, capsys, command):
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        kernel = counted("green_kernel", greenssf.green_kernel)
        monkeypatch.setattr(greenssf, "green_kernel", kernel)  # cli reads it there per call
        for name in ("_kernel_sums", "symbol_coeffs"):
            monkeypatch.setattr(greenssf, name, counted(name, getattr(greenssf, name)))
        argv = [command, *GREEN_ARGV[1:]]
        assert cli.main(argv) == 0
        # one kernel: the weighted sum and K_p in one pass, and no symbol built
        assert calls == ["green_kernel", "_kernel_sums"]
        report = json.loads(capsys.readouterr().out)
        # the values derived from that one K_p are the library's own
        scalars = KernelScalars(1, Fraction(3, 2), 1, 5, 3)
        kernel = green_kernel(scalars, CRat(Fraction(1, 2), -3))
        assert report["hs_norm_sq"] == str(kernel.hs_norm_sq())
        coincidence = kernel.coincidence(CRat(Fraction(-2, 3)))
        assert report["ssf"]["value"] == coincidence.as_list()

    def test_zero_eigenvalue_comes_after_the_kernel_checks(self, capsys):
        argv = [*GREEN_ARGV, "--E=0"]
        assert cli.main([*argv, "--p-override=0"]) == 2
        assert "summation bound p = 0 is empty" in capsys.readouterr().err
        assert cli.main(argv) == 2
        assert "E = 0 is invalid" in capsys.readouterr().err


# valid and invalid weight exponents
exponent_st = st.one_of(
    st.integers(-1, 4),
    st.builds(CRat, st.integers(-1, 4)),
    st.builds(CRat, fractions_st, fractions_st),
    st.just(True),
    st.just(2.0),
)


class TestWeightValueAtZero:
    @given(
        st.integers(1, 4),
        st.integers(1, 7),
        st.integers(1, 7),
        nonzero_st.filter(lambda a: a != CRat(1)),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reassembled_constant_term(self, rho, sigma, tau, a):
        w = weight_expansion(rho, sigma, tau, a)
        expected = reference_reassembled(w).coeff(0)
        assert weight_value_at_zero(rho, sigma, tau, a) == expected
        assert w.value_at_zero() == expected

    @given(exponent_st, exponent_st, exponent_st, st.one_of(crat_st, st.integers(-1, 2)))
    @example(0, 0, 0, 0)
    @example(1, 2, 3, 1)
    @example(1, 2, 3, CRat(0))
    @settings(max_examples=150, deadline=None)
    def test_validates_like_the_table(self, rho, sigma, tau, a):
        # same checks in the same order: the first bad argument names the error
        try:
            weight_expansion(rho, sigma, tau, a)
        except Exception as ref:
            with pytest.raises(type(ref)) as got:
                weight_value_at_zero(rho, sigma, tau, a)
            assert type(got.value) is type(ref) and str(got.value) == str(ref)
        else:
            weight_value_at_zero(rho, sigma, tau, a)


# operands with every mix of zero parts, as CRat, Fraction and int
small_fraction_st = st.one_of(st.just(Fraction(0)), fractions_st)
exact_operand_st = st.one_of(
    st.builds(CRat, small_fraction_st),
    st.builds(CRat, st.just(0), small_fraction_st),
    st.builds(CRat, small_fraction_st, small_fraction_st),
    fractions_st,
    st.integers(-5, 5),
)
crat_operand_st = exact_operand_st.filter(lambda x: isinstance(x, CRat))
BINARY_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


def _exact_result(got, expected):
    assert type(got) is CRat
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == expected
    twin = CRat(*expected)
    assert got == twin and hash(got) == hash(twin)


class TestCRatFastPaths:
    @given(st.sampled_from(BINARY_OPS), crat_operand_st, exact_operand_st, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_binary_ops_match_textbook_formulas(self, op, x, y, swap):
        if swap:
            x, y = y, x
        if op is operator.truediv and y == 0:
            with pytest.raises(ZeroDivisionError, match="^division by zero CRat$"):
                op(x, y)
            return
        _exact_result(op(x, y), reference_crat_op(x, y, op))

    @given(crat_operand_st, st.integers(-4, 6))
    @settings(max_examples=200, deadline=None)
    def test_pow_matches_repeated_products(self, x, n):
        if n < 0 and x.is_zero():
            with pytest.raises(ZeroDivisionError, match="^division by zero CRat$"):
                x ** n
            return
        _exact_result(x ** n, reference_crat_op(x, n, operator.pow))

    @given(crat_operand_st)
    @settings(max_examples=100, deadline=None)
    def test_negation_and_conjugate(self, x):
        _exact_result(-x, (-x.re, -x.im))
        a, b, d = x.triple
        _exact_result(CRat.from_ints(a, -b, d), (x.re, -x.im))

    @pytest.mark.parametrize("zero", [CRat(0), CRat(0, 0), 0, Fraction(0)])
    @pytest.mark.parametrize("x", [CRat(3, 2), CRat(Fraction(1, 2)), CRat(0, -1), CRat(0)])
    def test_division_by_zero_message(self, x, zero):
        with pytest.raises(ZeroDivisionError, match="^division by zero CRat$"):
            x / zero
        if isinstance(zero, CRat):
            with pytest.raises(ZeroDivisionError, match="^division by zero CRat$"):
                1 / zero

    @pytest.mark.parametrize("op", BINARY_OPS)
    @pytest.mark.parametrize("x", [CRat(3, 2), CRat(Fraction(-1, 2)), CRat(0, 2)])
    @pytest.mark.parametrize("y", [1.5, -0.25, 2 + 1j, 0.5j])
    def test_float_and_complex_operands_raise_type_error(self, op, x, y):
        with pytest.raises(TypeError):
            op(x, y)
        with pytest.raises(TypeError):
            op(y, x)


class TestSurdProduct:
    def test_non_conjugate_pair_trips_the_oracle(self):
        with pytest.raises(OracleMismatch):
            _surd_product(Surd(1, 1, 2), Surd(2, 1, 2))


# zero, real and complex scalars
scalar_st = st.one_of(st.just(CRat(0)), real_st, st.builds(CRat, fractions_st, fractions_st))


@st.composite
def spec_st(draw, max_l=6, leading=scalar_st):
    """A recurrence spec; ``leading`` draws ab and E, the scalars of C."""
    l = draw(st.integers(1, max_l))
    rho, sigma, tau = draw(scalar_st), draw(scalar_st), draw(scalar_st)
    return RecurrenceSpec(l, rho, sigma, tau, draw(leading), draw(leading), draw(scalar_st))


def _over_L(spec, which, numerators):
    """Integer bracket numerators ``(alpha, beta, gamma)`` over the spec's
    ``L`` of ``which``, as ``(A, B, C)``."""
    L = distsol._scaled(spec, which)[0]
    return tuple(CRat.from_ints(re, im, L) for re, im in numerators)


def _formulas(which):
    """(A, B, C) of ``which`` at any int k, through the unmemoized build."""
    return lambda spec, k: _over_L(spec, which, _numerators(spec, which, k))


BRANCHES = {
    "real": (forward_real, _formulas("real"), reference_real_brackets, closed_form_roots_real),
    "imag": (forward_imag, _formulas("imag"), reference_imag_brackets, closed_form_roots_imag),
}
# the scalars whose denominators make up each branch's L
READS = {"real": ("a", "rho", "tau", "ab"), "imag": ("a", "sigma", "E")}


def _start(spec, which):
    return max(2, spec.l) if which == "real" else max(2, spec.l - 1)


def _fresh(spec):
    """A spec built from the fields of ``spec``, with an empty memo."""
    return RecurrenceSpec(*(getattr(spec, name) for name in RecurrenceSpec.FIELD_NAMES))


# K = 300 specs, whose sequences reach denominators of 1000 digits and more
LONG_REAL_SPEC = RecurrenceSpec(
    1, Fraction(-7, 5), Fraction(5, 3), Fraction(1, 4), Fraction(-3, 11), Fraction(5, 7),
    Fraction(7, 2),
)
LONG_COMPLEX_SPEC = RecurrenceSpec(
    2, CRat(1, -2), Fraction(3, 4), CRat(0, 1), CRat(-1, 1), CRat(Fraction(3, 2), -1), CRat(2, 1)
)
# large primes where a step's denominator can pick them up: a bracket
# denominator (a, tau) and the squared moduli |ab|^2 = 994013/9 and
# |E|^2 = 994013/25, both prime numerators
LARGE_PRIME_SPEC = RecurrenceSpec(
    3, Fraction(2, 9), CRat(1, Fraction(-1, 2)), Fraction(5, 1000003),
    CRat(Fraction(997, 3), Fraction(2, 3)), CRat(Fraction(2, 5), Fraction(-997, 5)),
    CRat(Fraction(1, 999983), 1),
)


# complex ab and E whose Gaussian-integer factors bring primes into a step's
# denominator through their norms: 5, 8 = 2^2 * 2 (a common factor 2 of the
# parts), 9 = 3^2 (a pure imaginary) and 169 = 13^2
norm_st = st.builds(
    lambda q, z: CRat(q) * z, nonzero_fraction_st,
    st.sampled_from([CRat(1, 2), CRat(2, 2), CRat(0, 3), CRat(12, 5)]),
)


class TestSharedBrackets:
    @given(spec_st())
    @settings(max_examples=80, deadline=None)
    def test_brackets_match_reference(self, spec):
        for which, (_, formulas, reference, _) in BRANCHES.items():
            for k in range(-8, 65):
                expected = reference(spec, k)
                assert formulas(spec, k) == expected
                if expected[2] == 0:
                    with pytest.raises(DegenerateLeading):
                        _brackets(spec, which, k)
                    continue
                got = _brackets(spec, which, k)
                assert all(type(x) is int for pair in got for x in pair)
                assert _over_L(spec, which, got) == expected
                assert _brackets(spec, which, k) is got
            L = distsol._scaled(spec, which)[0]
            assert L == math.lcm(*(getattr(spec, name).triple[2] for name in READS[which]))

    @given(spec_st(), st.integers(-10, 12))
    @example(RecurrenceSpec(1, 0, 0, 0, 0, 0, CRat(0, 1)), -1)
    @example(RecurrenceSpec(6, CRat(0, 2), 3, 0, CRat(0, -1), CRat(1, 1), 2), 3)
    @example(RecurrenceSpec(2, Fraction(1, 3), Fraction(-2, 5), CRat(Fraction(1, 4), 1),
                            Fraction(5, 2), CRat(0, Fraction(-1, 3)), Fraction(3, 4)), -4)
    @settings(max_examples=150, deadline=None)
    def test_brackets_match_their_docstring_forms(self, spec, k):
        # the factored forms that _real_numerators and _imag_numerators
        # document, over L, through CRat operators: one falling factorial per family, and the
        # shared factors s = (k+2-l)(k+1-l) and t = k+2-l
        l, ff = spec.l, falling_factorial
        s, t = (k + 2 - l) * (k + 1 - l), k + 2 - l
        real = (
            ff(k + 2, l) * (s - spec.a),
            ff(k + 1, l - 1) * (s * spec.rho - spec.tau),
            ff(k, l) * spec.ab,
        )
        imag = (
            ff(k + 2, l) * (t + (t - 1) * spec.a),
            ff(k + 1, l) * spec.sigma,
            ff(k, l - 1) * spec.E,
        )
        for which, expected in (("real", real), ("imag", imag)):
            numerators = _numerators(spec, which, k)
            assert all(type(x) is int for pair in numerators for x in pair)
            got = _over_L(spec, which, numerators)
            assert [x.triple for x in got] == [CRat.from_value(x).triple for x in expected]

    @given(
        spec_st(max_l=4, leading=st.one_of(scalar_st, norm_st)),
        st.sampled_from(sorted(BRANCHES)),
        exact_operand_st,
        exact_operand_st,
        st.integers(2, 24),
    )
    @example(LONG_REAL_SPEC, "real", 1, Fraction(-1, 2), 300)
    @example(LONG_REAL_SPEC, "imag", CRat(2), 1, 300)
    @example(LONG_COMPLEX_SPEC, "real", CRat(1, 1), Fraction(1, 3), 300)
    @example(LONG_COMPLEX_SPEC, "imag", 1, CRat(0, -2), 300)
    @example(LONG_REAL_SPEC, "real", Fraction(1, 1000003), CRat(0, Fraction(2, 999983)), 300)
    @example(LONG_COMPLEX_SPEC, "imag", Fraction(1, 1000003), CRat(0, Fraction(2, 999983)), 300)
    @example(LARGE_PRIME_SPEC, "real", 1, CRat(1, 1), 300)
    @example(LARGE_PRIME_SPEC, "imag", Fraction(1, 1000003), 1, 300)
    @example(RecurrenceSpec(2, 1, Fraction(1, 2), 3, CRat(12, 5), CRat(2, 2), 5),
             "real", Fraction(1, 3), CRat(1, 2), 120)
    @example(RecurrenceSpec(2, 1, Fraction(1, 2), 3, CRat(12, 5), CRat(2, 2), 5),
             "imag", 1, Fraction(-1, 13), 120)
    @example(RecurrenceSpec(1, 2, CRat(0, 1), -1, CRat(Fraction(3, 2), 3), CRat(0, 3), 7),
             "imag", CRat(0, Fraction(1, 5)), 1, 120)
    @settings(max_examples=150, deadline=None)
    def test_forward_and_residuals_match_reference(self, spec, which, c0, c1, K):
        forward = BRANCHES[which][0]
        try:
            expected = reference_forward(spec, c0, c1, K, which)
        except DegenerateLeading:
            with pytest.raises(DegenerateLeading):
                forward(spec, c0, c1, K)
            return
        seq = forward(spec, c0, c1, K)
        assert list(seq.values) == expected
        for part in (p for v in seq.values for p in (v.re, v.im)):
            assert part.denominator > 0 and math.gcd(part.numerator, part.denominator) == 1
        table = reference_residuals(seq, spec, which)
        assert residual_check(seq, spec, which) == table
        assert residual_check(seq, _fresh(spec), which) == table
        assert all(type(v) is CRat for v in expected)
        assert all(res == 0 for _, res in table)

    @given(spec_st(max_l=3), st.sampled_from(sorted(BRANCHES)), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_residuals_match_reference(self, spec, which, K):
        roots_fn = BRANCHES[which][3]
        try:
            seq = paper_ck(CRat(1), CRat(0), roots_fn, spec, K, start=_start(spec, which))
        except DegenerateLeading:
            return
        assert residual_check(seq, spec, which) == reference_residuals(seq, spec, which)

    @given(
        spec_st(max_l=4, leading=nonzero_st),
        st.sampled_from(sorted(BRANCHES)),
        st.integers(0, 10),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_mutated_entry_shows_in_three_residuals(self, spec, which, extra, data):
        forward, _, reference, _ = BRANCHES[which]
        start = _start(spec, which)
        K = start + 2 + extra
        seq = forward(spec, 1, 1, K)
        k = data.draw(st.integers(start, K - 2))
        vals = list(seq.values)
        vals[k] = vals[k] + 1
        mutated = CoeffSequence(tuple(vals))
        got = dict(residual_check(mutated, spec, which))
        assert got == dict(reference_residuals(mutated, spec, which))
        # c_k enters index k through C, k+1 through B and k+2 through A
        sign = 1 if which == "real" else -1
        moved = {
            k: reference(spec, k)[2],
            k + 1: -sign * reference(spec, k + 1)[1],
            k + 2: sign * reference(spec, k + 2)[0],
        }
        for j, res in got.items():
            assert res == moved.get(j, 0)
            assert bool(res) == bool(moved.get(j, 0))

    @given(spec_st(), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_filled_memo_is_invisible(self, spec, extra):
        fresh = _fresh(spec)
        K = spec.l + extra
        for which, (forward, *_) in BRANCHES.items():
            try:
                seq = forward(spec, 1, 1, K)
                residual_check(seq, spec, which)
            except DegenerateLeading:
                pass
        assert spec._brackets and not fresh._brackets
        assert spec == fresh and hash(spec) == hash(fresh)
        assert repr(spec) == repr(fresh)
        assert spec.as_dict() == fresh.as_dict()

    @pytest.mark.parametrize("which", sorted(BRANCHES))
    def test_index_contract(self, monkeypatch, which):
        roots_fn = BRANCHES[which][3]

        def brackets(spec, k):
            return _brackets(spec, which, k)

        spec = RecurrenceSpec(l=2, rho=1, sigma=3, tau=2, ab=2, E=CRat(1, 1), a=3)
        calls = []
        exact_int = distsol.exact_int

        def counted(x, name):
            calls.append(x)
            return exact_int(x, name)

        monkeypatch.setattr(distsol, "exact_int", counted)
        for exact, k in ((Fraction(4, 2), 2), (CRat(5), 5), (Fraction(-3), -3)):
            calls.clear()
            assert brackets(spec, exact) is brackets(spec, k)
            assert calls == [exact]
            calls.clear()
            assert roots_fn(spec, exact) == roots_fn(spec, k)
            assert calls == [exact]
        # the memo holds index 2 now, and still a float or bool index is refused
        for bad in (2.0, True):
            for fn in (brackets, roots_fn):
                with pytest.raises(TypeError):
                    fn(spec, bad)

    @pytest.mark.parametrize("which", sorted(BRANCHES))
    @pytest.mark.parametrize("spec", [LONG_REAL_SPEC, LARGE_PRIME_SPEC])
    def test_every_step_carries_a_support(self, monkeypatch, which, spec):
        # a real C (LONG_REAL_SPEC) and a complex one (complex ab and E in
        # LARGE_PRIME_SPEC) reduce every step, solved forward or alone,
        # with an int support
        supports = []
        strip = distsol._stripped

        def recorded(a, b, d, support):
            supports.append(support)
            return strip(a, b, d, support)

        monkeypatch.setattr(distsol, "_stripped", recorded)
        forward, _, _, _ = BRANCHES[which]
        forward(spec, Fraction(1, 3), 1, 40)
        assert len(supports) == 40 - _start(spec, which) + 1
        step = distsol.recur_real if which == "real" else distsol.recur_imag
        step(spec, 1, Fraction(1, 3), 40)
        step(spec, 1, 1, 40)
        assert len(supports) == 40 - _start(spec, which) + 3
        assert all(type(s) is int and s > 1 for s in supports)

    @pytest.mark.parametrize("which", sorted(BRANCHES))
    def test_readers_after_forward_build_nothing(self, monkeypatch, which):
        forward, _, _, roots_fn = BRANCHES[which]
        spec = RecurrenceSpec(l=3, rho=1, sigma=3, tau=2, ab=2, E=CRat(1, 1), a=3)
        start, K = _start(spec, which), 20
        calls = []
        build = distsol._numerators

        def counted(spec, which, k):
            calls.append(k)
            return build(spec, which, k)

        monkeypatch.setattr(distsol, "_numerators", counted)

        # one integer bracket build per admissible index
        per_spec = K - start + 1
        residual_check(forward(_fresh(spec), 1, 0, K), _fresh(spec), which)
        assert len(calls) == 2 * per_spec
        calls.clear()
        seq = forward(spec, 1, 0, K)
        assert calls == list(range(start, K + 1))
        residual_check(seq, spec, which)
        for k in range(start, K + 1):
            roots_fn(spec, k)
        assert calls == list(range(start, K + 1))


# parts whose denominators are large primes, as in LARGE_PRIME_SPEC
prime_part_st = st.builds(Fraction, st.integers(-9, 9),
                          st.sampled_from([1, 2, 3, 999983, 1000003, 3 * 999983]))
prime_scalar_st = st.one_of(
    scalar_st, st.builds(CRat, prime_part_st), st.builds(CRat, prime_part_st, prime_part_st)
)
# l from 1 to 5, so a zero band comes before the first determined index
prime_spec_st = st.builds(RecurrenceSpec, st.integers(1, 5), *[prime_scalar_st] * 6)
# c_0 and c_1: zero, real or complex
seed_value_st = st.one_of(
    st.just(CRat(0)), st.builds(CRat, fractions_st), st.builds(CRat, fractions_st, fractions_st)
)


def _canonical(v):
    a, b, d = v.triple
    return type(v) is CRat and d > 0 and math.gcd(a, b, d) == 1


class TestIntegerSteps:
    """The forward solve and the single step, which run on integer triples
    over integer brackets, against the plain ``CRat`` recurrence."""

    @given(prime_spec_st, st.sampled_from(sorted(BRANCHES)), seed_value_st, seed_value_st,
           st.integers(1, 40))
    @example(LARGE_PRIME_SPEC, "real", CRat(0), CRat(0), 30)
    @example(LARGE_PRIME_SPEC, "imag", CRat(0), CRat(1, 1), 30)
    @example(LARGE_PRIME_SPEC, "real", CRat(Fraction(1, 3)), CRat(0, -2), 30)
    @settings(max_examples=200, deadline=None)
    def test_forward_matches_the_reference_recurrence(self, spec, which, c0, c1, K):
        forward = BRANCHES[which][0]
        try:
            expected = reference_forward(spec, c0, c1, K, which)
        except DegenerateLeading:
            with pytest.raises(DegenerateLeading):
                forward(spec, c0, c1, K)
            return
        seq = forward(spec, c0, c1, K)
        assert list(seq.values) == expected
        assert all(_canonical(v) for v in seq.values)

    @given(prime_spec_st, st.sampled_from(sorted(BRANCHES)), seed_value_st, seed_value_st,
           st.integers(-8, 40))
    @example(LARGE_PRIME_SPEC, "real", CRat(Fraction(1, 3)), CRat(0, -2), 7)
    @example(LARGE_PRIME_SPEC, "imag", CRat(0), CRat(1, 1), -3)
    @settings(max_examples=200, deadline=None)
    def test_single_step_matches_the_reference_recurrence(self, spec, which, x, y, k):
        step = distsol.recur_real if which == "real" else distsol.recur_imag
        A, B, C = BRANCHES[which][2](spec, k)
        if C == 0:
            with pytest.raises(DegenerateLeading):
                step(spec, x, y, k)
            return
        got = step(spec, x, y, k)
        assert got == ((B * y - A * x) / C if which == "real" else (A * x - B * y) / C)
        assert _canonical(got)
