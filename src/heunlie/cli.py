"""Command-line front end: parse exact parameters, orchestrate the analyses,
and emit reproducible text or JSON reports.

Exit codes: 0 success, 2 invalid parameters, 3 internal oracle mismatch
(the CI tripwire; never expected), 4 structural failure (a basis column
overflowed the degree bound), 5 I/O failure.

Scalars cross the shell boundary exactly: rationals as ``p/q`` and complex
values as ``RE+IMi`` (for example ``3/2-1/2i``).  Identical configurations
produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Optional

from . import __version__
from .algpoly import CR_ZERO, CRat
from .distsol import (
    DegenerateLeading,
    NonIntegerExponents,
    RecurrenceSpec,
    closed_form_roots_imag,
    closed_form_roots_real,
    forward_imag,
    forward_real,
    residual_check,
    weight_expansion,
    weight_value_at_zero,
)
from .greenssf import (
    DegenerateQuadratic,
    KernelScalars,
    ZeroEigenvalue,
    _coincidence_from_kp,
    _hs_norm_from_kp,
    _nonzero_eigenvalue,
    green_kernel,
    kp_constant,
    ssf,
    trace_green,
)
from .heunop import (
    INFINITY,
    HeunParams,
    OracleMismatch,
    OverflowColumn,
    build_canonical_cleared,
    build_expanded,
    es_condition,
    es_discrepancies,
    es_spectrum,
    expanded_es_coeffs,
    indicial_discrepancies,
    indicial_exponents,
    matrix_diagonal,
    matrix_spectrum,
    qes_matrix,
    uea_heun_coeffs,
    verify_theorem1,
)
from .sl2rep import Spin, UEAExpr, uea_expand

__all__ = ["main", "RunConfig"]

_PARAM_NAMES = ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon")

#: invalid input: exit 2 from ``main``, an in-stream error row in a sweep
_INVALID_PARAMETERS = (
    ValueError,
    NonIntegerExponents,
    DegenerateLeading,
    DegenerateQuadratic,
    ZeroEigenvalue,
    ZeroDivisionError,
)


@dataclass
class RunConfig:
    """Resolved invocation: command, exact parameters, and the flag block."""

    command: str
    params: Optional[HeunParams]
    n: int
    flags: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params.as_dict() if self.params is not None else None,
            "n": self.n,
            "flags": {k: _jsonable(v) for k, v in sorted(self.flags.items())},
        }


def _jsonable(v):
    if isinstance(v, CRat):
        return str(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


_version_cache: Optional[str] = None


def _tool_version() -> str:
    global _version_cache
    if _version_cache is None:
        try:
            out = subprocess.run(
                ["git", "describe", "--tags", "--always", "--dirty"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=5,
            )
            described = out.stdout.strip()
        except Exception:
            described = ""
        _version_cache = f"heunlie-{__version__}" + (f"+{described}" if described else "")
    return _version_cache


def _crat(text: str) -> CRat:
    try:
        return CRat.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):  # JSON has no NaN or Infinity
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    # a decimal literal is exactly nonzero iff its mantissa has a nonzero
    # digit; read off the text, since Fraction(text) would build 10**|exponent|
    mantissa = text.lower().partition("e")[0]
    if value == 0 and any(d in mantissa for d in "123456789"):
        raise argparse.ArgumentTypeError(
            f"nonzero value underflows to 0 as a float, got {text!r}"
        )
    return value


def _add_param_flags(sp: argparse.ArgumentParser) -> None:
    for name in _PARAM_NAMES:
        sp.add_argument(f"--{name}", type=_crat, required=True, metavar="EXACT")


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--output", choices=("text", "json"), default="json")
    sp.add_argument("--out", metavar="FILE", default=None)


def _params_from_args(args) -> HeunParams:
    return HeunParams(**{name: getattr(args, name) for name in _PARAM_NAMES})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``heunlie`` parser, built once per process: parsing never mutates
    it, and every default is immutable."""
    parser = argparse.ArgumentParser(
        prog="heunlie",
        description="Exact operator algebra, solvability detection and kernel "
        "reports for the Heun family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="constraint, exponents, coefficient audit")
    _add_param_flags(p_an)
    p_an.add_argument("--n", type=int, default=1, help="spin integer n = 2j (0..64)")
    _add_output_flags(p_an)

    p_ex = sub.add_parser("expand", help="expand a generator-word expression")
    p_ex.add_argument("--expr", required=True, help="e.g. '1/2 * +0 + 1/2 * 0+'")
    p_ex.add_argument("--j", type=str, required=True, help="spin, e.g. 1/2")
    _add_output_flags(p_ex)

    p_sp = sub.add_parser("spectrum", help="polynomial-flag matrix and spectrum")
    _add_param_flags(p_sp)
    p_sp.add_argument("--n", type=int, default=1)
    p_sp.add_argument("--N", type=int, default=None, help="basis degree bound (default n)")
    _add_output_flags(p_sp)

    p_ds = sub.add_parser("distsol", help="three-term recurrences and residual audit")
    _add_param_flags(p_ds)
    p_ds.add_argument("--n", type=int, default=1)
    p_ds.add_argument("--l", type=int, required=True, help="exponent offset l >= 1")
    p_ds.add_argument("--E", type=_crat, default=CRat(1))
    p_ds.add_argument("--K", type=int, default=32)
    p_ds.add_argument("--c0", type=_crat, default=CRat(1))
    p_ds.add_argument("--c1", type=_crat, default=CR_ZERO)
    _add_output_flags(p_ds)

    p_gr = sub.add_parser("green", help="separated kernel, norm constant, trace")
    _add_green_flags(p_gr)
    _add_output_flags(p_gr)

    p_ss = sub.add_parser("ssf", help="spectral shift values on a level grid")
    _add_green_flags(p_ss)
    _add_output_flags(p_ss)

    p_sw = sub.add_parser("sweep", help="stream one report per grid point")
    _add_param_flags(p_sw)
    p_sw.add_argument("--n", type=int, default=1)
    p_sw.add_argument(
        "--grid",
        required=True,
        help="semicolon-separated assignments, e.g. 'a=2,3;q=0,1'",
    )
    p_sw.add_argument("--out", metavar="FILE", default=None)

    # let exact negative literals (-5/6, -1+2i) pass as option values; the
    # --name=value spelling works regardless
    matcher = re.compile(r"^-\d[\d/i+\-.]*$")
    parser._negative_number_matcher = matcher
    for sp in sub.choices.values():
        sp._negative_number_matcher = matcher
    return parser


def _add_green_flags(sp: argparse.ArgumentParser) -> None:
    _add_param_flags(sp)
    sp.add_argument("--n", type=int, default=0)
    sp.add_argument("--s-eval", dest="s_eval", type=_crat, default=CR_ZERO)
    sp.add_argument("--p-override", dest="p_override", type=int, default=None)
    sp.add_argument("--E", type=_crat, default=CRat(1))
    sp.add_argument("--lambda", dest="lam", type=_finite_float, default=1.0)
    for name in ("rho", "sigma", "tau"):
        sp.add_argument(
            f"--{name}",
            dest=f"scalar_{name}",
            type=_crat,
            default=None,
            help=f"override the derived {name} (diagnostic scalar mode)",
        )


# -- payload builders ---------------------------------------------------------


def _check_n(n: int) -> int:
    if not 0 <= n <= 64:
        raise ValueError(f"n must be in 0..64, got {n}")
    return n


def _surd_str_pair(pair_) -> list[str]:
    return [str(pair_[0]), str(pair_[1])]


def payload_analyze(params: HeunParams, n: int) -> dict:
    n = _check_n(n)
    j = Spin.from_n(n).j
    L = build_expanded(params)
    if build_canonical_cleared(params) != L:
        raise OracleMismatch("cleared canonical form disagrees with the expanded form")
    exponents = {}
    for label, point in (("0", CR_ZERO), ("1", CRat(1)), ("a", params.a), ("inf", INFINITY)):
        exponents[label] = _surd_str_pair(indicial_exponents(L, point))
    rows = verify_theorem1(j, params).as_list()
    rows += indicial_discrepancies(params).as_list()
    rows += es_discrepancies(n, params).as_list()
    spectrum = es_spectrum(n, params, n)
    return {
        "schema": "heun-analysis-v1",
        "version": _tool_version(),
        "config": RunConfig("analyze", params, n).as_dict(),
        "params": params.as_dict(),
        "constraint_residual": str(params.constraint_residual),
        "exponents": exponents,
        "uea_coeffs": uea_heun_coeffs(j, params).as_dict(),
        "discrepancies": rows,
        "es": {
            "condition_residual": str(es_condition(j, params)),
            "matrix_dim": n + 1,
            "spectrum": [_jsonable(v) for v in spectrum],
        },
    }


def payload_expand(expr_text: str, j_text: str) -> dict:
    j_value = CRat.parse(j_text)
    if not j_value.is_rational():
        raise ValueError(f"spin j must be real, got j={j_value}")
    j = Spin(j_value.re)
    expr = UEAExpr.parse(expr_text)
    op = uea_expand(expr, j)
    return {
        "schema": "uea-expand-v1",
        "version": _tool_version(),
        "expr": str(expr),
        "j": str(j.j),
        "operator": str(op),
        "order": None if op.is_zero() else int(op.order),
    }


def payload_spectrum(params: HeunParams, n: int, N: Optional[int]) -> dict:
    n = _check_n(n)
    j = Spin.from_n(n).j
    size = n if N is None else N
    L = build_expanded(params)
    M = qes_matrix(L, size)
    lower, upper, spectrum = matrix_spectrum(M)
    return {
        "schema": "heun-spectrum-v1",
        "version": _tool_version(),
        "config": RunConfig("spectrum", params, n, {"N": size}).as_dict(),
        "es_condition_residual": str(es_condition(j, params)),
        "matrix_dim": size + 1,
        "matrix": [[str(x) for x in row] for row in M],
        "triangular_lower": lower,
        "triangular_upper": upper,
        "diagonal": [str(v) for v in matrix_diagonal(M)],
        "spectrum": [_jsonable(v) for v in spectrum],
        "discrepancies": es_discrepancies(n, params).as_list(),
    }


def payload_distsol(params: HeunParams, n: int, l: int, E: CRat, K: int,
                    c0: CRat, c1: CRat) -> dict:
    n = _check_n(n)
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    coeffs = expanded_es_coeffs(n, params)
    spec = RecurrenceSpec.make(
        l=l, rho=coeffs.rho, sigma=coeffs.sigma, tau=coeffs.tau,
        ab=coeffs.abProduct, E=E, a=params.a,
    )
    weight_block = None
    try:
        weight_block = weight_expansion(coeffs.rho, coeffs.sigma, coeffs.tau, params.a).as_dict()
    except NonIntegerExponents as exc:
        weight_block = {"error": str(exc)}

    out: dict[str, Any] = {
        "schema": "distsol-v1",
        "version": _tool_version(),
        "config": RunConfig(
            "distsol", params, n,
            {"l": l, "E": E, "K": K, "c0": c0, "c1": c1},
        ).as_dict(),
        "spec": spec.as_dict(),
        "weight": weight_block,
    }
    for branch, forward in (("real", forward_real), ("imag", forward_imag)):
        block: dict[str, Any] = {}
        try:
            seq = forward(spec, c0, c1, K)
            block["sequence"] = seq.as_list()
            block["residuals"] = [
                {"k": k, "value": _jsonable(_as_plain(v))} for k, v in residual_check(seq, spec, branch)
            ]
        except DegenerateLeading as exc:
            block["error"] = str(exc)
        roots_fn = closed_form_roots_real if branch == "real" else closed_form_roots_imag
        roots = []
        for k in range(2, min(K, 8) + 1):
            try:
                center, spread = roots_fn(spec, k)
                roots.append({"k": k, "center": str(center), "spread": str(spread)})
            except DegenerateLeading as exc:
                roots.append({"k": k, "error": str(exc)})
        block["roots"] = roots
        out[branch] = block
    return out


def _as_plain(v):
    if isinstance(v, CRat):
        return v
    return complex(v)


def _kernel_scalars(args, params: HeunParams) -> KernelScalars:
    n = _check_n(args.n)
    overrides = {name: getattr(args, f"scalar_{name}") for name in ("rho", "sigma", "tau")}
    if any(v is not None for v in overrides.values()):
        if not all(v is not None for v in overrides.values()):
            raise ValueError("scalar mode needs all of --rho, --sigma and --tau")
        return KernelScalars.direct(
            n, params.a, overrides["rho"], overrides["sigma"], overrides["tau"]
        )
    return KernelScalars.from_heun(n, params)


def payload_green(args, params: HeunParams) -> dict:
    scalars = _kernel_scalars(args, params)
    kernel = green_kernel(scalars=scalars, s_eval=args.s_eval, p_override=args.p_override)
    # one K_p per report: the norm and the coincidence kernel derive from it
    kp = kp_constant(scalars=scalars, s_eval=args.s_eval, p_override=args.p_override)
    rho, sigma, tau = scalars.integer_exponents()
    omega0 = weight_value_at_zero(rho, sigma, tau, scalars.a)
    norm = _hs_norm_from_kp(kp, omega0)
    coincidence = _coincidence_from_kp(kp, _nonzero_eigenvalue(args.E))
    shift = ssf(args.lam, coincidence)
    return {
        "schema": "green-v1",
        "version": _tool_version(),
        "config": RunConfig(
            "green", params, args.n,
            {
                "s_eval": args.s_eval,
                "p_override": args.p_override,
                "E": args.E,
                "lambda": args.lam,
                "scalars": scalars.as_dict(),
            },
        ).as_dict(),
        "n": scalars.n,
        "p_bound": kernel.p_bound,
        "s_eval": _jsonable(args.s_eval),
        "prefactor_coeffs": [str(c) for c in kernel.prefactor.coeffs],
        "kernel_coeff": _jsonable(_as_plain(kernel.scalar)),
        "kp": _jsonable(_as_plain(kp)),
        "omega_at_0": str(omega0),
        "hs_norm_sq": _jsonable(norm if isinstance(norm, float) else str(norm)),
        "trace": _jsonable(_as_plain(trace_green(kernel))),
        "ssf": shift.as_dict(),
    }


# -- rendering ---------------------------------------------------------------


def _emit(payload: dict, output: str, out_path: Optional[str]) -> None:
    if output == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines: list[str] = []
        _render_text(payload, lines, 0)
        text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_text(node, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    if isinstance(node, dict):
        for key, val in node.items():
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                _render_text(val, lines, depth + 1)
            else:
                lines.append(f"{pad}{key}: {val}")
    elif isinstance(node, list):
        for val in node:
            if isinstance(val, (dict, list)):
                lines.append(f"{pad}-")
                _render_text(val, lines, depth + 1)
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{node}")


# -- sweep -------------------------------------------------------------------


def _parse_grid(text: str) -> list[tuple[str, list[CRat]]]:
    axes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, values = chunk.partition("=")
        name = name.strip()
        if name not in _PARAM_NAMES:
            raise ValueError(f"unknown sweep parameter {name!r}")
        vals = [CRat.parse(v.strip()) for v in values.split(",") if v.strip()]
        if not vals:
            raise ValueError(f"sweep axis {name!r} has no values")
        axes.append((name, vals))
    if not axes:
        raise ValueError("empty sweep grid")
    return axes


def _sweep_point(base: dict, n: int, overrides: dict) -> dict:
    merged = dict(base)
    merged.update({k: v for k, v in overrides.items()})
    point = {k: str(v) for k, v in merged.items()}
    try:
        params = HeunParams(**merged)
        payload = payload_analyze(params, n)
        return {"point": point, "report": payload}
    except _INVALID_PARAMETERS as exc:  # invalid points stay in-stream
        return {"point": point, "error": {"type": type(exc).__name__, "message": str(exc)}}


def run_sweep(args) -> str:
    axes = _parse_grid(args.grid)
    base = {name: getattr(args, name) for name in _PARAM_NAMES}
    names = [name for name, _ in axes]
    results = [
        _sweep_point(base, args.n, dict(zip(names, combo)))
        for combo in product(*(vals for _, vals in axes))
    ]
    return "".join(json.dumps(r) + "\n" for r in results)


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "expand":
            payload = payload_expand(args.expr, args.j)
            _emit(payload, args.output, args.out)
            return 0
        if args.command == "sweep":
            params = _params_from_args(args)  # validates the base point
            _check_n(args.n)
            text = run_sweep(args)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0

        params = _params_from_args(args)
        if args.command == "analyze":
            payload = payload_analyze(params, args.n)
        elif args.command == "spectrum":
            payload = payload_spectrum(params, args.n, args.N)
        elif args.command == "distsol":
            payload = payload_distsol(params, args.n, args.l, args.E, args.K, args.c0, args.c1)
        elif args.command in ("green", "ssf"):
            payload = payload_green(args, params)
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
        _emit(payload, args.output, args.out)
        return 0
    except OracleMismatch as exc:
        print(f"heunlie: internal oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except OverflowColumn as exc:
        print(f"heunlie: structural failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"heunlie: I/O failure: {exc}", file=sys.stderr)
        return 5
    except _INVALID_PARAMETERS as exc:
        print(f"heunlie: invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
