import argparse
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import heunlie
from heunlie import cli, heunop
from heunlie.algpoly import (
    CRat,
    DiffOp,
    HeunParams,
    NonIntegerExponents,
    OracleMismatch,
    Polynomial,
)
from heunlie.greenssf import ZeroEigenvalue

BASE = [
    "--a", "2", "--q", "0", "--alpha", "1", "--beta", "1",
    "--gamma", "1", "--delta", "1", "--epsilon", "1",
]

ES1 = [
    "--a", "2", "--q", "1", "--alpha", "-1", "--beta", "0",
    "--gamma", "1/3", "--delta", "1/2", "--epsilon", "-5/6",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_happy_path(self, capsys):
        code, out, err = run(capsys, "analyze", *BASE, "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "heun-analysis-v1"
        assert payload["constraint_residual"] == "0"
        assert set(payload["exponents"]) == {"0", "1", "a", "inf"}

    def test_exponent_block_has_one_minus_gamma(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--a", "2", "--q", "1", "--alpha", "1", "--beta", "1",
            "--gamma", "1/3", "--delta", "1", "--epsilon", "5/3", "--n", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["exponents"]["0"]) == {"0", "2/3"}

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "analyze", *BASE, "--n", "2")
        _, out2, _ = run(capsys, "analyze", *BASE, "--n", "2")
        assert out1.encode() == out2.encode()

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "analyze", *BASE, "--n", "1")
        params = HeunParams(a=2, q=0, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        assert json.loads(out) == cli.payload_analyze(params, 1)

    def test_forbidden_a_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--a", "1", *BASE[2:])
        assert code == 2
        assert "avoid 0 and 1" in err

    def test_oracle_mismatch_exits_3(self, capsys, monkeypatch):
        def corrupt(p):
            return DiffOp([Polynomial.one()])

        monkeypatch.setattr(heunop, "build_expanded", corrupt)
        code, _, err = run(capsys, "analyze", *BASE, "--n", "1")
        assert code == 3
        assert "oracle mismatch" in err

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "analyze", *BASE, "--n", "1", "--output", "text")
        assert code == 0
        assert "constraint_residual: 0" in out


class TestSpectrum:
    def test_es_params_upper_triangular(self, capsys):
        code, out, _ = run(capsys, "spectrum", *ES1, "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["triangular_upper"] is True
        assert payload["spectrum"] == payload["diagonal"]
        assert payload["es_condition_residual"] == "0"
        assert payload["matrix_dim"] == 2

    def test_one_by_one(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--a", "2", "--q", "1", "--alpha", "0",
            "--beta", "1/2", "--gamma", "1/3", "--delta", "1/2",
            "--epsilon", "2/3", "--n", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["matrix_dim"] == 1
        assert payload["spectrum"] == ["-1"]  # constant term -q

    def test_generic_params_overflow_exit_4(self, capsys):
        code, _, err = run(capsys, "spectrum", *BASE, "--n", "1", "--N", "3")
        assert code == 4
        assert "column z^3" in err

    @pytest.mark.parametrize("N", [65, 300, -1])
    def test_degree_bound_outside_0_to_64_exits_2(self, capsys, N):
        # alpha = -N preserves degree N, so an unbounded N would build and
        # render an (N+1)^2 matrix
        argv = ["spectrum", *ES1[:4], f"--alpha={-abs(N)}", *ES1[6:], "--n", "1", f"--N={N}"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"heunlie: invalid parameters: N must be in 0..64, got {N}\n"

    def test_degree_bound_below_n_still_overflows(self, capsys):
        code, _, err = run(capsys, "spectrum", *BASE, "--n", "8", "--N=4")
        assert code == 4
        assert "column z^4" in err

    def test_tridiagonal_case_uses_float_spectrum(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--a", "2", "--q", "1", "--alpha", "-2",
            "--beta", "-1/2", "--gamma", "1/3", "--delta", "1/2",
            "--epsilon", "-7/3", "--n", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["triangular_lower"] is False
        assert payload["triangular_upper"] is False
        assert len(payload["spectrum"]) == 3
        assert all(isinstance(v, list) and len(v) == 2 for v in payload["spectrum"])
        rows = {r["name"]: r["residual"] for r in payload["discrepancies"]}
        assert rows["E_statement_vs_entry00"] == "0"

    def test_float_spectrum_is_byte_deterministic(self, capsys):
        args = ["spectrum", "--a", "2", "--q", "1", "--alpha", "-2",
                "--beta", "-1/2", "--gamma", "1/3", "--delta", "1/2",
                "--epsilon", "-7/3", "--n", "2"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1.encode() == out2.encode()


class TestExpand:
    def test_symmetrized_word(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "1/2 * +0 + 1/2 * 0+", "--j", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["operator"] == "3/2 z^2 D + z^3 D^2"
        assert payload["order"] == 2

    def test_constant_only(self, capsys):
        code, out, _ = run(capsys, "expand", "--expr", "3/2", "--j", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["operator"] == "3/2"

    def test_non_real_spin_exits_2(self, capsys):
        code, out, err = run(capsys, "expand", "--expr", "3/2", "--j", "1/2+3i")
        assert code == 2
        assert out == ""
        assert "invalid parameters: spin j must be real, got j=1/2+3i" in err


class TestDistsolCommand:
    def test_imag_branch_residuals_vanish(self, capsys):
        code, out, _ = run(capsys, "distsol", *ES1, "--n", "1", "--l", "1",
                           "--E", "2", "--K", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "distsol-v1"
        assert all(r["value"] == "0" for r in payload["imag"]["residuals"])
        # n = 1 gives ab = 0: the real branch records its degeneracy
        assert "error" in payload["real"]

    def test_real_branch_with_nonzero_ab(self, capsys):
        code, out, _ = run(capsys, "distsol", *BASE, "--n", "2", "--l", "1",
                           "--E", "1", "--K", "6")
        assert code == 0
        payload = json.loads(out)
        assert all(r["value"] == "0" for r in payload["real"]["residuals"])
        assert payload["real"]["roots"][0]["k"] == 2

    def test_undetermined_band_past_K_leaves_no_residual_row(self, capsys):
        code, out, _ = run(capsys, "distsol", *BASE, "--n", "2", "--l", "1000000",
                           "--E", "3/2", "--K", "2")
        assert code == 0
        payload = json.loads(out)
        for branch in ("real", "imag"):
            assert payload[branch]["sequence"] == ["1", "0", "0"]
            assert payload[branch]["residuals"] == []

    def test_small_K_rejected(self, capsys):
        code, _, err = run(capsys, "distsol", *BASE, "--n", "1", "--l", "1", "--K", "1")
        assert code == 2


class TestGreenCommand:
    SCALARS = ["--rho", "1", "--sigma", "3", "--tau", "2"]

    def test_scalar_mode(self, capsys):
        code, out, _ = run(capsys, "green", *BASE, "--n", "1", *self.SCALARS)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "green-v1"
        assert payload["p_bound"] == 2
        assert payload["prefactor_coeffs"] == ["1", "1i"]
        # with p = 2 both factorial weights are 1, so the kernel coefficient
        # coincides with the norm constant
        assert payload["kp"] == payload["kernel_coeff"] == payload["trace"]
        assert payload["omega_at_0"] == "-2"

    def test_ssf_levels(self, capsys):
        code, out, _ = run(capsys, "ssf", *BASE, "--n", "1", *self.SCALARS,
                           "--lambda", "-3")
        assert code == 0
        payload = json.loads(out)
        assert payload["ssf"]["heaviside"] == "0"
        assert payload["ssf"]["value"] == []

    @pytest.mark.parametrize("output", ["json", "text"])
    def test_ssf_is_green_under_a_second_name(self, capsys, output):
        flags = [*BASE, "--n", "1", *self.SCALARS, "--E=2/3", "--lambda=1.5",
                 f"--output={output}"]
        code, green, err = run(capsys, "green", *flags)
        assert code == 0 and err == ""
        assert run(capsys, "ssf", *flags) == (0, green, "")
        if output == "json":
            assert json.loads(green)["config"]["command"] == "green"

    # a negative float literal is a value, not an option, in both spellings
    @pytest.mark.parametrize("value, level", [("-1e-3", -0.001), ("-2E1", -20.0)])
    def test_negative_float_lambda_in_both_spellings(self, capsys, value, level):
        flags = [*BASE, "--n", "1", *self.SCALARS]
        spaced = run(capsys, "ssf", *flags, "--lambda", value)
        assert spaced == run(capsys, "ssf", *flags, f"--lambda={value}")
        code, out, _ = spaced
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["flags"]["lambda"] == level
        assert payload["ssf"]["heaviside"] == "0"

    @pytest.mark.parametrize("command", ["green", "ssf"])
    @pytest.mark.parametrize("value, message", [
        # JSON has no spelling for these floats, so they are refused at parse time
        ("nan", "must be a finite number, got 'nan'"),
        ("inf", "must be a finite number, got 'inf'"),
        ("-inf", "must be a finite number, got '-inf'"),
        ("1/2", "invalid float value: '1/2'"),
        # exactly nonzero, but 0.0 as a float: the step's sign would be lost
        ("1e-400", "nonzero value underflows to 0 as a float, got '1e-400'"),
        ("-1e-400", "nonzero value underflows to 0 as a float, got '-1e-400'"),
    ])
    def test_bad_lambda_exits_2(self, capsys, command, value, message):
        with pytest.raises(SystemExit) as info:
            cli.main([command, *BASE, "--n", "1", *self.SCALARS, f"--lambda={value}"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --lambda: {message}" in captured.err

    @pytest.mark.parametrize("value", ["0", "-0.0", "0e5"])
    def test_zero_lambda_is_half_step(self, capsys, value):
        code, out, _ = run(capsys, "ssf", *BASE, "--n", "1", *self.SCALARS,
                           f"--lambda={value}")
        assert code == 0
        assert json.loads(out)["ssf"]["heaviside"] == "1/2"

    def test_spin_path_guard(self, capsys):
        # the kernel scalars come from the command line alone: the
        # raising-free expansion's rho = 3(1-n)/2 reaches no kernel
        with pytest.raises(SystemExit) as info:
            cli.main(["green", *BASE, "--n", "0"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("the following arguments are required: --rho, --sigma, --tau"
                in captured.err)

    # NonIntegerExponents is a ValueError and ZeroEigenvalue a
    # ZeroDivisionError, so both exit 2 through their base classes
    @pytest.mark.parametrize("command", ["green", "ssf"])
    @pytest.mark.parametrize("flags, message", [
        (["--rho=1/2", "--sigma=3", "--tau=2"], "rho = 1/2 is not a positive integer"),
        ([*SCALARS, "--E=0"], "coincidence kernel scales by 1/E; E = 0 is invalid"),
    ])
    def test_kernel_refusals_exit_2(self, capsys, command, flags, message):
        code, out, err = run(capsys, command, *BASE, "--n", "1", *flags)
        assert code == 2 and out == ""
        assert err.startswith(f"heunlie: invalid parameters: {message}")

    def test_partial_scalar_override_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["green", *BASE, "--n", "1", "--rho", "1"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --sigma, --tau" in captured.err

    @pytest.mark.parametrize("command", ["green", "ssf"])
    @pytest.mark.parametrize("missing", ["--rho", "--sigma", "--tau"])
    def test_each_kernel_scalar_is_required(self, capsys, command, missing):
        i = self.SCALARS.index(missing)
        given = self.SCALARS[:i] + self.SCALARS[i + 2:]
        with pytest.raises(SystemExit) as info:
            cli.main([command, *BASE, "--n", "1", *given])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the following arguments are required: {missing}\n" in captured.err

    def test_p_override_and_dual_point(self, capsys):
        code, out, _ = run(capsys, "green", *BASE, "--n", "1", *self.SCALARS,
                           "--p-override", "4", "--s-eval", "1/2i")
        assert code == 0
        payload = json.loads(out)
        assert payload["p_bound"] == 4
        assert len(payload["prefactor_coeffs"]) == 4
        assert payload["s_eval"] == "1/2i"
        # evaluated at a nonreal dual point the kernel coefficient matches the
        # library computation exactly
        from heunlie.algpoly import CRat
        from heunlie.greenssf import KernelScalars, green_kernel

        scal = KernelScalars(n=1, a=2, rho=1, sigma=3, tau=2)
        gk = green_kernel(scalars=scal, s_eval=CRat.parse("1/2i"), p_override=4)
        assert payload["kernel_coeff"] == str(gk.scalar)

    @pytest.mark.parametrize("command", ["green", "ssf"])
    @pytest.mark.parametrize("p_override", ["0", "-2"])
    def test_p_override_below_one_names_the_override(self, capsys, command, p_override):
        # sigma - rho = 2 is a valid bound: the refusal is the override's
        code, out, err = run(capsys, command, *BASE, "--n", "1", *self.SCALARS,
                             f"--p-override={p_override}")
        assert (code, out) == (2, "")
        assert err == f"heunlie: invalid parameters: p_override = {p_override} must be at least 1\n"

    def test_sweep_out_file(self, tmp_path, capsys):
        target = tmp_path / "sweep.jsonl"
        code, out, _ = run(capsys, "sweep", *BASE, "--n", "1",
                           "--grid", "q=0,1", "--out", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["report"]["schema"] == "heun-analysis-v1"
                   for line in lines)


class TestSweep:
    def test_grid_streams_in_order(self, capsys):
        code, out, _ = run(capsys, "sweep", *BASE, "--n", "1",
                           "--grid", "a=2,3;q=0,1")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 4
        points = [(rec["point"]["a"], rec["point"]["q"]) for rec in lines]
        assert points == [("2", "0"), ("2", "1"), ("3", "0"), ("3", "1")]

    def test_single_point_matches_direct_command(self, capsys):
        code, out, _ = run(capsys, "sweep", *BASE, "--n", "1", "--grid", "a=2")
        assert code == 0
        rec = json.loads(out.splitlines()[0])
        params = HeunParams(a=2, q=0, alpha=1, beta=1, gamma=1, delta=1, epsilon=1)
        assert rec["report"] == cli.payload_analyze(params, 1)

    def test_invalid_point_recorded_in_stream(self, capsys):
        code, out, _ = run(capsys, "sweep", *BASE, "--n", "1", "--grid", "a=1,2,3")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3
        assert "error" in lines[0]
        assert "report" in lines[1] and "report" in lines[2]
        assert lines[0]["error"]["type"] == "ValueError"

    # a repeated axis would overwrite the earlier one's values without a word
    @pytest.mark.parametrize("grid, axis", [("a=3,4;a=5", "a"), ("q=0;a=2;q=1", "q")])
    def test_repeated_axis_exits_2(self, capsys, grid, axis):
        code, out, err = run(capsys, "sweep", *BASE, "--n", "1", "--grid", grid)
        assert code == 2 and out == ""
        assert err == f"heunlie: invalid parameters: sweep axis {axis!r} is given more than once\n"

    @pytest.mark.parametrize("grid, message", [
        ("x=1", "unknown sweep parameter 'x'"),
        ("a=", "sweep axis 'a' has no values"),
        (";", "empty sweep grid"),
    ])
    def test_malformed_grid_exits_2(self, capsys, grid, message):
        code, out, err = run(capsys, "sweep", *BASE, "--n", "1", f"--grid={grid}")
        assert code == 2 and out == ""
        assert err == f"heunlie: invalid parameters: {message}\n"

    def test_empty_grid_chunk_is_skipped(self, capsys):
        code, out, _ = run(capsys, "sweep", *BASE, "--n", "1", "--grid=a=2;;q=0,1")
        assert code == 0
        assert run(capsys, "sweep", *BASE, "--n", "1", "--grid=a=2;q=0,1") == (0, out, "")

    def test_oracle_mismatch_in_one_point_exits_3(self, capsys, monkeypatch):
        real = heunop.build_expanded

        def corrupt_at_a3(p):
            return DiffOp([Polynomial.one()]) if p.a == 3 else real(p)

        monkeypatch.setattr(heunop, "build_expanded", corrupt_at_a3)
        code, out, err = run(capsys, "sweep", *BASE, "--n", "1", "--grid", "a=1,2,3,4")
        assert code == 3
        assert "oracle mismatch" in err
        assert out == ""

    def test_unexpected_error_is_not_an_error_row(self, capsys, monkeypatch):
        def broken(params, n):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "payload_analyze", broken)
        with pytest.raises(RuntimeError, match="bug"):
            cli.main(["sweep", *BASE, "--n", "1", "--grid", "a=2"])

    # the two subclasses are caught through their bases, ValueError and
    # ZeroDivisionError, and keep their own names in the error row
    @pytest.mark.parametrize(
        "exc_type", [*cli._INVALID_PARAMETERS, NonIntegerExponents, ZeroEigenvalue]
    )
    def test_invalid_parameter_family_matches_exit_2(self, capsys, monkeypatch, exc_type):
        def invalid(params, n):
            raise exc_type("bad point")

        monkeypatch.setattr(cli, "payload_analyze", invalid)
        code, out, _ = run(capsys, "sweep", *BASE, "--n", "1", "--grid", "a=2")
        assert code == 0
        assert json.loads(out)["error"] == {"type": exc_type.__name__, "message": "bad point"}
        code, _, err = run(capsys, "analyze", *BASE, "--n", "1")
        assert code == 2
        assert "invalid parameters: bad point" in err


# a flag-matrix entry of about 10^200 (where the eigenpair residual once
# overflowed to inf and tripped exit 3), and one past the float range
BIG, HUGE = str(10 ** 100), str(10 ** 400)
UNIT = ["--q=1", "--alpha=1", "--beta=1", "--delta=1", "--epsilon=1"]
BEYOND = "matrix entry (0, 0) exceeds the float range"


class TestFloatRange:
    def test_large_entries_analyze(self, capsys):
        code, out, err = run(capsys, "analyze", "--n=4", f"--a={BIG}", f"--gamma={BIG}", *UNIT)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["es"]["spectrum"]) == 5

    def test_large_entries_spectrum(self, capsys):
        # the constraint alpha + beta + 1 = gamma + delta + epsilon holds
        code, out, err = run(capsys, "spectrum", "--n=4", f"--a={BIG}", f"--gamma={BIG}",
                             "--q=1", "--alpha=-4", "--beta=1", "--delta=1",
                             f"--epsilon={-3 - 10 ** 100}")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert not payload["triangular_lower"] and not payload["triangular_upper"]
        assert len(payload["spectrum"]) == 5

    def test_entry_beyond_float_range_exits_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--n=4", f"--a={HUGE}", "--gamma=1", *UNIT)
        assert (code, out, err) == (2, "", f"heunlie: invalid parameters: {BEYOND}\n")

    def test_sweep_keeps_every_point(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n=4", "--a=2", f"--gamma={BIG}", *UNIT,
                           f"--grid=a=2,{BIG},{HUGE}")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert ["report" in row for row in rows] == [True, True, False]
        assert rows[2]["error"] == {"type": "ValueError", "message": BEYOND}


# a flag matrix with two eigenvalues about 10^90 apart at modulus 6*10^200:
# LAPACK's vector for one of them fails its residual check, while the value
# passes: the smallest singular value of (M - lambda I) / scale is about 1e-201
NEAR_PAIR = ["analyze", f"--a=3{'0' * 200}i", f"--epsilon=1{'0' * 90}", "--n=2",
             "--q=0", "--alpha=0", "--beta=0", "--gamma=0", "--delta=0"]


def test_good_values_with_a_failing_vector_exit_0(capsys):
    # the wrong-value side of the check: test_analysis_context's
    # test_corrupt_eigenvalue_exits_3
    params = cli._params_from_args(cli._parse(NEAR_PAIR))
    M = heunop.Analysis(2, params).flag_matrix
    arr = np.array([[complex(x) for x in row] for row in M])
    vals, vecs = np.linalg.eig(arr)
    scale = np.abs(arr).max()
    res = np.linalg.norm((arr / scale) @ vecs - vecs * (vals / scale), axis=0)
    assert (res > heunop.EIG_RESIDUAL_TOL).any()  # the vector check alone trips
    code, out, err = run(capsys, *NEAR_PAIR)
    assert (code, err) == (0, "")
    expected = sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))
    assert json.loads(out)["es"]["spectrum"] == [[z.real, z.imag] for z in expected]


class TestOutputFile:
    def test_write_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "analyze", *BASE, "--n", "1", "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["schema"] == "heun-analysis-v1"

    def test_unwritable_path_exits_5(self, capsys):
        code, _, err = run(capsys, "analyze", *BASE, "--n", "1",
                           "--out", "/nonexistent-dir/report.json")
        assert code == 5
        assert "I/O failure" in err


class TestReportsStartNoProcess:
    """A report depends on its inputs alone: no command starts a process, and
    every report's version is the package version, the same in any copy."""

    VERSION = f"heunlie-{heunlie.__version__}"
    COMMANDS = {
        "analyze": ["analyze", *BASE, "--n", "1"],
        "expand": ["expand", "--expr", "1/2 * +0 + 1/2 * 0+", "--j", "1/2"],
        "spectrum": ["spectrum", *ES1, "--n", "1"],
        "distsol": ["distsol", *ES1, "--n", "1", "--l", "1", "--K", "4"],
        "green": ["green", *BASE, "--n", "1", "--rho", "1", "--sigma", "3", "--tau", "2"],
        "ssf": ["ssf", *BASE, "--n", "1", "--rho", "1", "--sigma", "3", "--tau", "2"],
    }

    @pytest.fixture
    def started(self, monkeypatch):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("a report started a process")

        monkeypatch.setattr(subprocess, "Popen", refuse)
        return calls

    @pytest.mark.parametrize("output", ["json", "text"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_report_version_is_the_package_version(self, capsys, started, command, output):
        code, out, err = run(capsys, *self.COMMANDS[command], f"--output={output}")
        assert (code, err) == (0, "")
        if output == "json":
            assert json.loads(out)["version"] == self.VERSION
        else:
            assert out.splitlines()[1] == f"version: {self.VERSION}"
        assert started == []

    def test_sweep_rows_carry_the_package_version(self, capsys, started):
        code, out, _ = run(capsys, "sweep", *BASE, "--n", "1", "--grid", "a=1,2,3")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert "error" in rows[0]
        assert [row["report"]["version"] for row in rows[1:]] == [self.VERSION] * 2
        assert started == []

    def test_cli_holds_no_process_or_os_module(self):
        assert not {"subprocess", "os"} & set(vars(cli))


class TestNumpyLoadsLazily:
    # numpy serves only the float eigen path, and importing it costs about
    # as long as importing the package; a fresh process shows whether any
    # other report pulls it in
    SCRIPT = """
import contextlib, io, json, sys
from heunlie import cli

def loaded_after(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return "numpy" in sys.modules

print(json.dumps([loaded_after(*argv) for argv in json.loads(sys.argv[1])]))
"""

    def test_only_a_non_triangular_spectrum_imports_numpy(self):
        argvs = [
            ["expand", "--expr", "1/2 * +0 + 1/2 * 0+", "--j", "1/2"],
            ["distsol", *ES1, "--n", "1", "--l", "1", "--K", "4"],
            ["green", *BASE, "--n", "1", "--rho", "1", "--sigma", "3", "--tau", "2"],
            ["spectrum", *ES1, "--n", "1"],  # triangular: exact diagonal
            ["spectrum", "--n=2", "--a=2", "--q=1", "--alpha=-2", "--beta=-1/2",
             "--gamma=1/3", "--delta=1/2", "--epsilon=-7/3"],
        ]
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(heunlie.__file__).parent.parent))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [False, False, False, False, True]


class TestLiteralParsing:
    def test_negative_rational_values(self, capsys):
        code, out, _ = run(capsys, "analyze", "--a", "-3/2", "--q", "-1",
                           "--alpha", "-1/2", "--beta", "1", "--gamma", "1/4",
                           "--delta", "1/4", "--epsilon", "1", "--n", "1")
        assert code == 0
        assert json.loads(out)["params"]["a"] == "-3/2"

    def test_complex_literal(self, capsys):
        code, out, _ = run(capsys, "analyze", "--a", "1+1i", "--q", "0",
                           "--alpha", "1", "--beta", "1", "--gamma", "1",
                           "--delta", "1", "--epsilon", "1", "--n", "1")
        assert code == 0
        assert json.loads(out)["params"]["a"] == "1+1i"

    # argparse refuses a bad flag value by SystemExit(2); a bad grid value
    # reaches main's "invalid parameters" exit
    @pytest.mark.parametrize("value", ["1\n+2i", "1/2\n-3i", "1+3\ni"])
    def test_line_break_inside_a_literal_exits_2(self, capsys, value):
        with pytest.raises(SystemExit) as info:
            cli.main(["analyze", *BASE, f"--epsilon={value}", "--n", "1"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
        code, out, err = run(capsys, "sweep", *BASE, "--n", "1", f"--grid=a=2,{value}")
        assert (code, out) == (2, "")
        assert err == f"heunlie: invalid parameters: not an exact complex-rational literal: {value!r}\n"

    def test_oversized_literal_names_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        huge = "7" * (limit + 700) + "/7"
        with pytest.raises(SystemExit) as info:
            cli.main(["green", *BASE[2:], "--a=" + huge, "--n", "0"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"int-digit limit {limit}" in err
        assert f"{limit + 700}-digit" in err
        assert huge not in err and len(err) < 1000


class TestParserReuse:
    """One parser serves every call of ``main`` in a process."""

    GREEN = ["green", *BASE, "--n", "1", "--rho", "1", "--sigma", "3", "--tau", "2"]

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert run(capsys, *self.GREEN)[0] == 0
        first = len(built)
        assert first > 0
        assert run(capsys, "analyze", *BASE, "--n", "1")[0] == 0
        assert run(capsys, "distsol", *ES1, "--n", "1", "--l", "1", "--K", "4")[0] == 0
        assert run(capsys, *self.GREEN)[0] == 0
        assert len(built) == first
        assert cli.build_parser.cache_info().misses == 1

    def test_refusal_leaves_no_trace_in_the_next_call(self, capsys):
        cli.build_parser.cache_clear()
        code, alone, _ = run(capsys, *self.GREEN)
        assert code == 0
        cli.build_parser.cache_clear()
        with pytest.raises(SystemExit) as info:
            cli.main(["green", *BASE[2:], *self.GREEN[len(BASE) + 1:]])
        assert info.value.code == 2
        assert "the following arguments are required: --a" in capsys.readouterr().err
        code, after, _ = run(capsys, *self.GREEN)
        assert code == 0
        assert after == alone

    def test_flags_do_not_leak_between_calls(self, capsys):
        distsol = ["distsol", *ES1, "--n", "1", "--l", "1", "--K", "4"]
        code, out, _ = run(capsys, *distsol, "--c1=1/2")
        assert code == 0
        assert json.loads(out)["config"]["flags"]["c1"] == "1/2"
        code, out, _ = run(capsys, *distsol)
        assert code == 0
        assert json.loads(out)["config"]["flags"]["c1"] == "0"


REPORTS = TestReportsStartNoProcess.COMMANDS


class TestJsonWriter:
    @pytest.mark.parametrize("command", sorted(REPORTS))
    def test_report_is_json_dumps_of_its_payload(self, capsys, monkeypatch, command):
        payloads = []
        render = cli._render

        def kept(payload, output):
            payloads.append(payload)
            return render(payload, output)

        monkeypatch.setattr(cli, "_render", kept)
        code, out, err = run(capsys, *REPORTS[command])
        assert (code, err) == (0, "")
        assert out == json.dumps(payloads[0], indent=2) + "\n"


class TestNothingWrittenOnFailure:
    """A report that fails writes nothing: no stdout, and no ``--out`` file."""

    COMMANDS = {**REPORTS, "sweep": ["sweep", *BASE, "--n", "1", "--grid", "a=2,3"]}
    INVALID = {
        "analyze": ["--a=1"],
        "expand": ["--j=1/2+3i"],
        "spectrum": ["--N=65"],
        "distsol": ["--K=1"],
        "green": ["--tau=2/3"],
        "ssf": ["--tau=2/3"],
        "sweep": ["--grid=zz=1"],
    }

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_invalid_input_exits_2(self, capsys, tmp_path, command, to_file):
        target = tmp_path / "report"
        out_flag = [f"--out={target}"] if to_file else []
        code, out, err = run(capsys, *self.COMMANDS[command], *self.INVALID[command], *out_flag)
        assert code == 2
        assert out == ""
        assert err.startswith("heunlie: invalid parameters: ")
        assert not target.exists()

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_oracle_mismatch_mid_report_exits_3(self, capsys, monkeypatch, tmp_path,
                                                command, to_file):
        # count the values a report prints, then trip the oracle at the middle one
        printed = CRat.__str__
        calls = []

        def counted(z):
            calls.append(z)
            return printed(z)

        monkeypatch.setattr(CRat, "__str__", counted)
        assert run(capsys, *self.COMMANDS[command])[0] == 0
        middle = len(calls) // 2
        assert middle > 0
        calls.clear()

        def tripped(z):
            calls.append(z)
            if len(calls) == middle:
                raise OracleMismatch("tripped mid-report")
            return printed(z)

        monkeypatch.setattr(CRat, "__str__", tripped)
        target = tmp_path / "report"
        out_flag = [f"--out={target}"] if to_file else []
        code, out, err = run(capsys, *self.COMMANDS[command], *out_flag)
        assert code == 3
        assert out == ""
        assert err == "heunlie: internal oracle mismatch: tripped mid-report\n"
        assert not target.exists()
