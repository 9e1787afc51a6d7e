"""One analysis per report, and the band-only float path.

``payload_analyze`` reads every stage from one ``heunop.Analysis``: it
expands each generator word once, takes each indicial pair once and builds
one flag matrix, and its rows and spectrum equal those of fresh contexts.
At a negative ``n`` the context still gives its rows; only the flag matrix
refuses.
``_float_eigenvalues`` converts only the exactly nonzero entries and checks
all eigenpair residuals at once; it must hand ``np.linalg.eig`` the same array
as the dense conversion in ``util.reference_float_eigenvalues`` and return the
same spectrum, bit for bit.
"""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie import algpoly, cli, heunop, sl2rep
from heunlie.algpoly import CR_ONE, CR_ZERO, CRat, DiffOp, HeunParams, OracleMismatch, Polynomial
from heunlie.heunop import (
    INFINITY,
    Analysis,
    _float_eigenvalues,
    build_expanded,
    indicial_exponents,
    matrix_spectrum,
    qes_matrix,
)
from heunlie.greenssf import KernelScalars
from heunlie.sl2rep import Spin
from util import es_params, raising_free_expr, rand_crat, rand_params, reference_float_eigenvalues

COUNTED = ("uea_expand", "indicial_exponents", "uea_heun_coeffs", "qes_matrix")
PER_REPORT = {"uea_expand": 1, "indicial_exponents": 4, "uea_heun_coeffs": 1, "qes_matrix": 1}
# one per first letter of the Heun combination's six two-letter words (each
# letter's words are composed as one product); the indicial pairs compose no
# operators
COMPOSE_PER_REPORT = {"op_compose": 3}

BASE = ["--a=2", "--q=1/2", "--alpha=-2/3", "--beta=5/4", "--gamma=1/3", "--delta=-1/2",
        "--epsilon=7/5"]
# alpha = -8 under the parameter constraint: the n = 8 flag matrix is a
# tridiagonal band, so the spectrum takes the float path
SPECTRUM_N8 = ["spectrum", "--n=8", "--a=3", "--q=1/2", "--alpha=-8", "--beta=5/4",
               "--gamma=1/3", "--delta=-1/2", "--epsilon=-67/12"]


def _count_calls(monkeypatch, names, log=None) -> dict:
    """Wrap each named function under every module binding that holds it,
    and count its calls; ``log`` also records the call order."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(heunop, name, None) or getattr(algpoly, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            if log is not None:
                log.append(_name)
            return _original(*args, **kwargs)

        for module in (algpoly, heunop, cli, sl2rep):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


def _complex_params(rng) -> HeunParams:
    while True:
        a = rand_crat(rng, complex_ok=True)
        if a not in (CR_ZERO, CR_ONE):
            break
    return HeunParams(a, *(rand_crat(rng, complex_ok=True) for _ in range(6)))


def _param_sets():
    rng = random.Random(211)
    real = [rand_params(rng, constrained=False) for _ in range(2)]
    return real + [_complex_params(rng) for _ in range(2)]


class TestOneAnalysisPerReport:
    def test_payload_analyze_builds_each_stage_once(self, monkeypatch):
        counts = _count_calls(monkeypatch, (*COUNTED, *COMPOSE_PER_REPORT))
        cli.payload_analyze(HeunParams(2, 1, -1, 0, Fraction(1, 3), Fraction(1, 2), 1), 64)
        assert counts == {**PER_REPORT, **COMPOSE_PER_REPORT}

    def test_sweep_builds_one_context_per_valid_point(self, monkeypatch, capsys):
        counts = _count_calls(monkeypatch, (*COUNTED, *COMPOSE_PER_REPORT))
        # a = 1 is refused before any stage; the two a = 2 points share nothing
        assert cli.main(["sweep", "--n=8", "--grid=a=1,2,3,2", *BASE]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 4 and '"error"' in rows[0]
        per_point = {**PER_REPORT, **COMPOSE_PER_REPORT}
        assert counts == {name: 3 * calls for name, calls in per_point.items()}

    def test_spectrum_and_distsol_build_one_context(self, monkeypatch):
        made = []
        init = Analysis.__init__

        def counted(self, *args):
            made.append(self)
            init(self, *args)

        monkeypatch.setattr(Analysis, "__init__", counted)
        counts = _count_calls(monkeypatch, ("build_expanded", "uea_expand", "qes_matrix"))
        p = es_params(8)
        cli.payload_spectrum(p, 8, None)
        # the matrix's operator and the rows' coefficients are its stages
        assert len(made) == 1 and {"expanded", "es_coeffs"} <= set(vars(made[0]))
        assert counts == {"build_expanded": 1, "uea_expand": 1, "qes_matrix": 1}
        made.clear()
        cli.payload_distsol(p, 8, 2, CR_ONE, 4, CR_ONE, CR_ZERO)
        assert len(made) == 1 and "es_coeffs" in vars(made[0])

    def test_cli_reads_spin_data_through_the_context_alone(self):
        assert not {"build_expanded", "extract_expanded_coeffs", "uea_expand"} & set(vars(cli))

    @pytest.mark.parametrize("n, N, message", [
        (65, 70, "n must be in 0..64, got 65"),
        (8, 65, "N must be in 0..64, got 65"),
    ])
    def test_spectrum_checks_n_then_N_before_any_stage(self, monkeypatch, n, N, message):
        counts = _count_calls(monkeypatch, ("build_expanded", "qes_matrix"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            cli.payload_spectrum(es_params(8), n, N)
        assert counts == {"build_expanded": 0, "qes_matrix": 0}

    def test_expansion_and_raising_free_operator_share_one_generator_triple(self):
        sl2rep._generators.cache_clear()
        cli.payload_analyze(HeunParams(2, 1, -1, 0, Fraction(1, 3), Fraction(1, 2), 1), 8)
        info = sl2rep._generators.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_stages_run_in_report_order(self, monkeypatch):
        log = []
        _count_calls(monkeypatch, ("build_expanded", "build_canonical_cleared",
                                   "extract_expanded_coeffs", "matrix_spectrum", *COUNTED), log)
        cli.payload_analyze(HeunParams(2, 1, -1, 0, Fraction(1, 3), Fraction(1, 2), 1), 3)
        assert log == [
            "build_expanded", "build_canonical_cleared", *["indicial_exponents"] * 4,
            "uea_heun_coeffs", "uea_expand", "extract_expanded_coeffs",  # Theorem 1 rows
            "extract_expanded_coeffs",  # raising-free rows, from the same expansion
            "qes_matrix", "matrix_spectrum",
        ]

    @pytest.mark.parametrize("n", [0, 1, 2, 64])
    def test_payload_equals_the_stage_functions(self, n):
        for p in _param_sets():
            payload = cli.payload_analyze(p, n)
            rows = Analysis(n, p).theorem1_rows().as_list()
            rows += Analysis(0, p).indicial_rows().as_list()
            rows += Analysis(n, p).es_rows().as_list()
            assert payload["discrepancies"] == rows
            M = qes_matrix(Analysis(n, p).es_operator, n)
            spectrum = [cli._jsonable(v) for v in matrix_spectrum(M)[2]]
            assert payload["es"]["spectrum"] == spectrum
            L = build_expanded(p)
            points = {"0": CR_ZERO, "1": CR_ONE, "a": p.a, "inf": INFINITY}
            assert payload["exponents"] == {
                label: [str(e) for e in indicial_exponents(L, point)]
                for label, point in points.items()
            }
            assert payload["uea_coeffs"] == heunop.uea_heun_coeffs(Spin.from_n(n).j, p).as_dict()

    def test_each_stage_is_kept(self):
        ctx = Analysis(3, HeunParams(2, 1, -1, 0, Fraction(1, 3), Fraction(1, 2), 1))
        for stage in ("expanded", "exponents", "uea_coeffs", "heun_operator", "heun_coeffs",
                      "es_operator", "es_coeffs", "flag_matrix", "spectrum"):
            assert getattr(ctx, stage) is getattr(ctx, stage)

    def test_canonical_disagreement_exits_3_before_any_later_stage(self, monkeypatch, capsys):
        later = ("extract_expanded_coeffs", "matrix_spectrum", *COUNTED)
        counts = _count_calls(monkeypatch, later)
        monkeypatch.setattr(heunop, "build_canonical_cleared", lambda p: DiffOp([Polynomial.one()]))
        assert cli.main(["analyze", "--n=8", *BASE]) == 3
        err = capsys.readouterr().err
        assert err == ("heunlie: internal oracle mismatch: cleared canonical form "
                       "disagrees with the expanded form\n")
        assert counts == dict.fromkeys(later, 0)

    @pytest.mark.parametrize("reader", [
        lambda n, p: Analysis(n, p).es_operator, lambda n, p: Analysis(n, p).es_coeffs,
        lambda n, p: Analysis(n, p).es_rows(),
        lambda n, p: KernelScalars(n, p.a, 1, 3, 2),
    ], ids=["es_operator", "es_coeffs", "es_rows", "KernelScalars"])
    def test_bool_spin_integer_raises_type_error(self, reader):
        p = HeunParams(2, 1, 1, 1, 1, 1, 1)
        reader(1, p)
        for flag in (True, False):
            with pytest.raises(TypeError, match="^n must be an exact integer, got bool$"):
                reader(flag, p)
        with pytest.raises(TypeError, match="^cannot coerce float to CRat exactly$"):
            reader(1.5, p)
        with pytest.raises(ValueError, match="^n must be an integer, got 3/2$"):
            reader(Fraction(3, 2), p)

    def test_indicial_rows_skip_the_canonical_check(self, monkeypatch):
        counts = _count_calls(monkeypatch, ("build_expanded", "build_canonical_cleared"))
        Analysis(0, HeunParams(2, 1, -1, 0, Fraction(1, 3), Fraction(1, 2), 1)).indicial_rows()
        assert counts == {"build_expanded": 1, "build_canonical_cleared": 0}

    @pytest.mark.parametrize("n", [-3, -1, 0, 5])
    def test_es_coeffs_is_one_raising_free_expansion(self, monkeypatch, n):
        for p in _param_sets():
            j = Spin.from_n(n).j
            expected = heunop.extract_expanded_coeffs(
                sl2rep.uea_expand(raising_free_expr(j, p), j), p.a
            )
            counts = _count_calls(monkeypatch, ("uea_expand",))
            assert Analysis(n, p).es_coeffs == expected
            assert counts == {"uea_expand": 1}
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_spin_gives_rows_but_no_flag_matrix(self, n):
        # Analysis takes any integer n: the rows exist at j = n/2 < 0, and
        # only the flag matrix, of size n + 1, refuses
        j = Fraction(n, 2)
        for p in _param_sets():
            ctx = Analysis(n, p)
            theorem1 = {row.name: row for row in ctx.theorem1_rows()}
            assert len(theorem1) == 14 and len(ctx.es_rows().rows) == 6
            expanded = heunop.extract_expanded_coeffs(
                sl2rep.uea_expand(heunop.uea_heun(j, p), j), p.a)
            for name, field in (("rho_general", "rho"), ("sigma_general", "sigma"),
                                ("tau_general", "tau"), ("ab_product_general", "abProduct")):
                assert theorem1[name].oracle == getattr(expanded, field)
            with pytest.raises(ValueError) as info:
                ctx.flag_matrix
            assert str(info.value) == f"N must be nonnegative, got {n}"


fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=4)
crat_st = st.one_of(st.builds(CRat, fractions_st), st.builds(CRat, fractions_st, fractions_st))
params_st = st.builds(
    HeunParams, crat_st.filter(lambda a: a not in (CR_ZERO, CR_ONE)), *[crat_st] * 6
)


class TestOneExpansion:
    @given(params_st, st.integers(-7, 64))
    @example(es_params(64), 64)
    @example(HeunParams(CRat(1, 2), 0, 0, 0, 0, 0, 0), -7)
    @settings(max_examples=60, deadline=None)
    def test_derived_operators_equal_the_word_expansions(self, p, n):
        # the raising-free operator derived from the one Heun expansion is
        # the expansion of the eight raising-free words, term for term, and
        # the Heun coefficients are those of the expanded uea_heun
        j = Spin.from_n(n).j
        ctx = Analysis(n, p)
        expected = sl2rep.uea_expand(raising_free_expr(j, p), j)
        assert ctx.es_operator == expected
        heun = sl2rep.uea_expand(heunop.uea_heun(j, p), j)
        assert ctx.heun_coeffs == heunop.extract_expanded_coeffs(heun, p.a)


def _rand_band_entry(rng, zeros):
    """A random entry: an exact zero of one of several spellings, a tiny
    rational whose float is -0.0 or +0.0, or an ordinary value."""
    kind = rng.random()
    if kind < 0.3:
        return rng.choice(zeros)
    if kind < 0.4:
        tiny = Fraction(rng.choice((-1, 1)), 10 ** 400)
        return rng.choice((CRat(tiny), CRat(0, tiny), CRat(rand_crat(rng).re, tiny)))
    return rand_crat(rng, complex_ok=True)


def _rand_matrix(rng, size, band):
    zeros = [CR_ZERO, CRat(0), CRat(Fraction(0), Fraction(0)), -CRat(0), CRat.parse("-0"),
             CRat(0) * CRat(5)]
    return tuple(
        tuple(
            _rand_band_entry(rng, zeros) if not band or abs(r - c) <= 1 else rng.choice(zeros)
            for c in range(size)
        )
        for r in range(size)
    )


def _bits(values):
    return [(z.real.hex(), z.imag.hex()) for z in values]


class _RecordEig:
    """``np.linalg.eig`` that keeps the arrays it was given, and optionally
    corrupts the eigenvalues at the given indices.  A corrupt eigenvector
    alone trips nothing: the check falls back to the value's least residual
    over all vectors."""

    def __init__(self, corrupt=()):
        self.real = np.linalg.eig
        self.corrupt = corrupt
        self.arrays = []

    def __call__(self, arr):
        self.arrays.append(arr.copy())
        vals, vecs = self.real(arr)
        vals = vals.copy()
        for k, weight in self.corrupt:
            vals[k % len(vals)] += weight
        return vals, vecs


class TestBandFloatPath:
    @pytest.mark.parametrize("band", [True, False])
    def test_identical_to_dense_conversion(self, band, monkeypatch):
        rng = random.Random(223 + band)
        for _ in range(40):
            M = _rand_matrix(rng, rng.randint(1, 12), band)
            eig = _RecordEig()
            monkeypatch.setattr(np.linalg, "eig", eig)
            try:
                expected = reference_float_eigenvalues(M)
            except OracleMismatch:
                with pytest.raises(OracleMismatch):
                    _float_eigenvalues(M)
                continue
            got = _float_eigenvalues(M)
            assert _bits(got) == _bits(expected)
            reference_arr, arr = eig.arrays
            assert arr.tobytes() == reference_arr.tobytes()

    def test_tiny_negative_entry_stays_negative_zero(self, monkeypatch):
        tiny = CRat(Fraction(-1, 10 ** 400))
        M = ((CRat(1), tiny), (CRat(2), CRat(3)))
        assert complex(tiny).real.hex() == "-0x0.0p+0"
        eig = _RecordEig()
        monkeypatch.setattr(np.linalg, "eig", eig)
        assert _bits(_float_eigenvalues(M)) == _bits(reference_float_eigenvalues(M))
        arr, reference_arr = eig.arrays
        assert arr[0, 1].real.hex() == "-0x0.0p+0"
        assert arr.tobytes() == reference_arr.tobytes()

    def test_large_entries_keep_a_finite_residual(self):
        big = CRat(10 ** 200)
        M = ((big, big), (CR_ONE, big))
        assert all(np.isfinite(z) for z in _float_eigenvalues(M))

    def test_entry_beyond_float_range_is_invalid_input(self):
        M = ((CR_ONE, CRat(10 ** 400)), (CR_ONE, CR_ONE))
        with pytest.raises(ValueError, match=r"^matrix entry \(0, 1\) exceeds the float range$"):
            _float_eigenvalues(M)

    def test_nan_residual_trips(self, monkeypatch):
        real = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda arr: (real(arr)[0] * np.nan, real(arr)[1]))
        with pytest.raises(OracleMismatch, match=r"^eigenvalue residual nan exceeds"):
            _float_eigenvalues(((CR_ONE, CRat(2)), (CRat(3), CRat(4))))

    @pytest.mark.parametrize("corrupt", [((0, 1.0),), ((4, 1.0),), ((-1, 1.0),),
                                         ((4, 1.0), (-1, 5.0)), ((-1, 5.0), (0, 1e-3))])
    def test_corrupt_eigenvalue_raises_on_first_failing_pair(self, corrupt, monkeypatch):
        rng = random.Random(227)
        M = _rand_matrix(rng, 9, band=True)
        monkeypatch.setattr(np.linalg, "eig", _RecordEig(corrupt))
        with pytest.raises(OracleMismatch) as reference:
            reference_float_eigenvalues(M)
        with pytest.raises(OracleMismatch) as got:
            _float_eigenvalues(M)
        pattern = r"eigenvalue residual (\S+) exceeds 1\.0e-10 \* scale"
        expected_res = float(re.fullmatch(pattern, str(reference.value)).group(1))
        assert float(re.fullmatch(pattern, str(got.value)).group(1)) == pytest.approx(
            expected_res, rel=1e-2
        )

    def test_corrupt_eigenvectors_alone_keep_the_spectrum(self, monkeypatch):
        # every vector fails its residual, but each value passes through the
        # smallest singular value of M - lambda I
        M = _rand_matrix(random.Random(227), 9, band=True)
        expected = _float_eigenvalues(M)
        real = np.linalg.eig

        def corrupt_vectors(arr):
            vals, vecs = real(arr)
            return vals, vecs + np.arange(1, len(vals) + 1)[:, None]

        monkeypatch.setattr(np.linalg, "eig", corrupt_vectors)
        assert _bits(_float_eigenvalues(M)) == _bits(expected)

    @pytest.mark.parametrize("index", [0, 4, 8])
    def test_corrupt_eigenvalue_exits_3(self, index, monkeypatch, capsys):
        assert cli.main(SPECTRUM_N8) == 0
        capsys.readouterr()
        monkeypatch.setattr(np.linalg, "eig", _RecordEig(((index, 1.0),)))
        assert cli.main(SPECTRUM_N8) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"heunlie: internal oracle mismatch: eigenvalue residual \S+ exceeds "
            r"1\.0e-10 \* scale\n",
            captured.err,
        )
