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
import re
import sys
from itertools import product, repeat
from json.encoder import encode_basestring_ascii as _str_literal
from typing import Any, Iterable, Optional

from . import __version__
from .algpoly import (
    CR_ZERO,
    CRat,
    DegenerateLeading,
    DegenerateQuadratic,
    HeunParams,
    NonIntegerExponents,
    OracleMismatch,
    OverflowColumn,
)

#: the package: ``_lib.<module>`` imports a library module on first access
#: (the package's ``__getattr__``), so each command loads only the modules
#: its payload builder reads.  A function-level ``from .module import``
#: would resolve the relative name through importlib on every report; this
#: is one attribute read, which also finds a name patched on the module.
_lib = sys.modules[__package__]

__all__ = ["main"]

#: every report's ``version``: the package version alone, so the same
#: configuration gives the same bytes in any checkout or installed copy
_TOOL_VERSION = f"heunlie-{__version__}"

#: invalid input: exit 2 from ``main``, an in-stream error row in a sweep
_INVALID_PARAMETERS = (
    ValueError,
    DegenerateLeading,
    DegenerateQuadratic,
    ZeroDivisionError,
)


def _config(command: str, params: HeunParams, n: int, flags: dict) -> dict:
    """The resolved invocation: command, exact parameters, and the flag block."""
    return {
        "command": command,
        "params": params.as_dict(),
        "n": n,
        "flags": {k: _jsonable(v) for k, v in sorted(flags.items())},
    }


def _jsonable(v):
    if isinstance(v, CRat):
        return str(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


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


def _params_from_args(args) -> HeunParams:
    return HeunParams(**{name: getattr(args, name) for name in HeunParams.FIELD_NAMES})


#: a required exact literal: each parameter and kernel scalar
_EXACT = {"type": _crat, "required": True, "metavar": "EXACT"}
_PARAM_FLAGS = {f"--{name}": _EXACT for name in HeunParams.FIELD_NAMES}
_OUTPUT_FLAGS = {
    "--output": {"choices": ("text", "json"), "default": "json"},
    "--out": {"metavar": "FILE", "default": None},
}

#: each command: its ``add_parser`` keywords, and each of its option
#: strings, in help order, with that flag's ``add_argument`` keywords
_COMMANDS = {
    "analyze": ({"help": "constraint, exponents, coefficient audit"}, {
        **_PARAM_FLAGS,
        "--n": {"type": int, "default": 1, "help": "spin integer n = 2j (0..64)"},
        **_OUTPUT_FLAGS,
    }),
    "expand": ({"help": "expand a generator-word expression"}, {
        "--expr": {"required": True, "help": "e.g. '1/2 * +0 + 1/2 * 0+'"},
        "--j": {"type": str, "required": True, "help": "spin, e.g. 1/2"},
        **_OUTPUT_FLAGS,
    }),
    "spectrum": ({"help": "polynomial-flag matrix and spectrum"}, {
        **_PARAM_FLAGS,
        "--n": {"type": int, "default": 1},
        "--N": {"type": int, "default": None, "help": "basis degree bound (default n)"},
        **_OUTPUT_FLAGS,
    }),
    "distsol": ({"help": "three-term recurrences and residual audit"}, {
        **_PARAM_FLAGS,
        "--n": {"type": int, "default": 1},
        "--l": {"type": int, "required": True, "help": "exponent offset l >= 1"},
        "--E": {"type": _crat, "default": CRat(1)},
        "--K": {"type": int, "default": 32},
        "--c0": {"type": _crat, "default": CRat(1)},
        "--c1": {"type": _crat, "default": CR_ZERO},
        **_OUTPUT_FLAGS,
    }),
    # one report under two names; both report config.command "green"
    "green": ({
        "aliases": ["ssf"],
        "help": "separated kernel, norm constant, trace, spectral shift at one --lambda",
    }, {
        **_PARAM_FLAGS,
        "--n": {"type": int, "default": 0},
        "--s-eval": {"dest": "s_eval", "type": _crat, "default": CR_ZERO},
        "--p-override": {"dest": "p_override", "type": int, "default": None},
        "--E": {"type": _crat, "default": CRat(1)},
        "--lambda": {"dest": "lam", "type": _finite_float, "default": 1.0},
        **{f"--{name}": _EXACT for name in ("rho", "sigma", "tau")},
        **_OUTPUT_FLAGS,
    }),
    "sweep": ({"help": "one JSON line per grid point, written when all are built"}, {
        **_PARAM_FLAGS,
        "--n": {"type": int, "default": 1},
        "--grid": {
            "required": True, "help": "semicolon-separated assignments, e.g. 'a=2,3;q=0,1'",
        },
        "--out": _OUTPUT_FLAGS["--out"],
    }),
}
#: command word (an alias too) -> its flags
_FLAGS = {
    word: flags
    for command, (keywords, flags) in _COMMANDS.items()
    for word in (command, *keywords.get("aliases", ()))
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a ``--flag=--`` value is refused as a
    missing one: CPython 3.11 drops the ``--`` and stores ``[]``, which no
    report can read."""

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``heunlie`` parser, built from ``_COMMANDS`` once per process:
    parsing never mutates it, and every default is immutable."""
    parser = _Parser(
        prog="heunlie",
        description="Exact operator algebra, solvability detection and kernel "
        "reports for the Heun family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # let exact negative literals (-5/6, -1+2i) and negative float literals
    # (-1e-3) pass as option values; the --name=value spelling works regardless
    matcher = re.compile(r"^-\d[\d/i+\-.eE]*$")
    parser._negative_number_matcher = matcher
    for command, (keywords, flags) in _COMMANDS.items():
        sp = sub.add_parser(command, **keywords)
        sp._negative_number_matcher = matcher
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)
    return parser


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read from ``_COMMANDS`` when the
    line is a command word followed by ``--flag=value`` words.

    Each flag must be an exact option string of that command, given once,
    with a value other than ``--``.  Each value goes through its flag's type
    and choices, and every other flag takes its default, as argparse would.
    Any other line, and any value or missing flag that argparse refuses,
    goes to the full parser: every help text, error text and exit code is
    argparse's own.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_flags(argv)
    return build_parser().parse_args(argv) if args is None else args


def _read_flags(argv: list) -> Optional[argparse.Namespace]:
    """The namespace the full parser builds for ``argv``, a command word
    followed by ``--flag=value`` words; None for any word, value or omission
    that needs argparse's own parsing pass."""
    flags = _FLAGS.get(argv[0]) if argv else None
    if flags is None:
        return None
    given = {}
    for word in argv[1:]:
        flag, eq, text = word.partition("=")
        if not eq or flag not in flags or flag in given or text == "--":
            return None
        given[flag] = text
    args = argparse.Namespace(command=argv[0])
    for flag, kw in flags.items():
        if flag in given:
            try:
                value = kw.get("type", str)(given[flag])
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        elif kw.get("required"):
            return None
        else:
            value = kw.get("default")
        setattr(args, kw.get("dest", flag[2:].replace("-", "_")), value)
    return args


# -- payload builders ---------------------------------------------------------


def _check_n(value: int, name: str = "n") -> int:
    if not 0 <= value <= 64:
        raise ValueError(f"{name} must be in 0..64, got {value}")
    return value


def _surd_str_pair(pair_) -> list[str]:
    return [str(pair_[0]), str(pair_[1])]


def payload_analyze(params: HeunParams, n: int) -> dict:
    heunop = _lib.heunop
    n = _check_n(n)
    # one context per report; reading its stages in this order raises the
    # same first exception as building each stage afresh
    ctx = heunop.Analysis(n, params)
    ctx.check_canonical()
    exponents = {label: _surd_str_pair(pair) for label, pair in ctx.exponents.items()}
    rows = ctx.theorem1_rows().as_list()
    rows += ctx.indicial_rows().as_list()
    rows += ctx.es_rows().as_list()
    spectrum = ctx.spectrum
    config = _config("analyze", params, n, {})
    return {
        "schema": "heun-analysis-v1",
        "version": _TOOL_VERSION,
        "config": config,
        "params": config["params"],
        "constraint_residual": str(params.constraint_residual),
        "exponents": exponents,
        "uea_coeffs": ctx.uea_coeffs.as_dict(),
        "discrepancies": rows,
        "es": {
            "condition_residual": str(heunop.es_condition(ctx.j, params)),
            "matrix_dim": n + 1,
            "spectrum": [_jsonable(v) for v in spectrum],
        },
    }


def payload_expand(expr_text: str, j_text: str) -> dict:
    sl2rep = _lib.sl2rep
    j = sl2rep.spin(j_text)
    expr = sl2rep.UEAExpr.parse(expr_text)
    op = sl2rep.uea_expand(expr, j)
    return {
        "schema": "uea-expand-v1",
        "version": _TOOL_VERSION,
        "expr": str(expr),
        "j": str(j),
        "operator": str(op),
        "order": None if op.is_zero() else int(op.order),
    }


def payload_spectrum(params: HeunParams, n: int, N: Optional[int]) -> dict:
    heunop = _lib.heunop
    # one context per report; the first error is n's, N's, then the matrix's
    ctx = heunop.Analysis(_check_n(n), params)
    size = _check_n(n if N is None else N, "N")
    M = heunop.qes_matrix(ctx.expanded, size)
    lower, upper, spectrum = heunop.matrix_spectrum(M)
    return {
        "schema": "heun-spectrum-v1",
        "version": _TOOL_VERSION,
        "config": _config("spectrum", params, n, {"N": size}),
        "es_condition_residual": str(heunop.es_condition(ctx.j, params)),
        "matrix_dim": size + 1,
        "matrix": [[str(x) for x in row] for row in M],
        "triangular_lower": lower,
        "triangular_upper": upper,
        "diagonal": [str(v) for v in heunop.matrix_diagonal(M)],
        "spectrum": [_jsonable(v) for v in spectrum],
        "discrepancies": ctx.es_rows().as_list(),
    }


def payload_distsol(params: HeunParams, n: int, l: int, E: CRat, K: int,
                    c0: CRat, c1: CRat) -> dict:
    distsol = _lib.distsol
    n = _check_n(n)
    if K < 2:
        raise ValueError(f"K must be at least 2, got {K}")
    coeffs = _lib.heunop.Analysis(n, params).es_coeffs
    spec = distsol.RecurrenceSpec(
        l=l, rho=coeffs.rho, sigma=coeffs.sigma, tau=coeffs.tau,
        ab=coeffs.abProduct, E=E, a=params.a,
    )
    try:
        weight_block = distsol.weight_expansion(
            coeffs.rho, coeffs.sigma, coeffs.tau, params.a
        ).as_dict()
    except NonIntegerExponents as exc:
        weight_block = {"error": str(exc)}

    out: dict[str, Any] = {
        "schema": "distsol-v1",
        "version": _TOOL_VERSION,
        "config": _config(
            "distsol", params, n, {"l": l, "E": E, "K": K, "c0": c0, "c1": c1}
        ),
        "spec": spec.as_dict(),
        "weight": weight_block,
    }
    for branch, forward, roots_fn in (
        ("real", distsol.forward_real, distsol.closed_form_roots_real),
        ("imag", distsol.forward_imag, distsol.closed_form_roots_imag),
    ):
        block: dict[str, Any] = {}
        try:
            seq = forward(spec, c0, c1, K)
            block["sequence"] = seq.as_list()
            block["residuals"] = [
                {"k": k, "value": str(v)} for k, v in distsol.residual_check(seq, spec, branch)
            ]
        except DegenerateLeading as exc:
            block["error"] = str(exc)
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


def payload_green(args, params: HeunParams) -> dict:
    greenssf = _lib.greenssf
    scalars = greenssf.KernelScalars(_check_n(args.n), params.a, args.rho, args.sigma, args.tau)
    # one kernel per report: it checks the exponents, a and the bound before
    # the coincidence kernel checks E, so the first exception is the one
    # each stage gives
    kernel = greenssf.green_kernel(scalars, args.s_eval, p_override=args.p_override)
    shift = greenssf.ssf(args.lam, kernel.coincidence(args.E))
    coeff = str(kernel.scalar)  # the kernel coefficient is also the trace
    return {
        "schema": "green-v1",
        "version": _TOOL_VERSION,
        "config": _config(
            "green", params, args.n,
            {
                "s_eval": args.s_eval,
                "p_override": args.p_override,
                "E": args.E,
                "lambda": args.lam,
                "scalars": scalars.as_dict(),
            },
        ),
        "n": scalars.n,
        "p_bound": kernel.p_bound,
        "s_eval": str(args.s_eval),
        "prefactor_coeffs": [str(c) for c in kernel.prefactor.coeffs],
        "kernel_coeff": coeff,
        "kp": str(kernel.kp),
        "omega_at_0": str(kernel.omega_at_0),
        "hs_norm_sq": str(kernel.hs_norm_sq()),
        "trace": coeff,
        "ssf": shift.as_dict(),
    }


# -- rendering ---------------------------------------------------------------


def _render(payload: dict, output: str) -> str:
    if output == "json":
        chunks: list[str] = []
        _json(payload, "\n", chunks)
        chunks.append("\n")
        return "".join(chunks)
    lines: list[str] = []
    _render_text(payload, lines, 0)
    return "\n".join(lines) + "\n"


# The bytes of json.dumps(node, indent=2), built by C-level joins.  With an
# indent, CPython's json runs its pure-Python encoder, one generator step per
# value; here a list of scalars is one join and a list of flat rows one
# join per row, and the report is joined once from its chunks.  Strings are
# escaped by encode_basestring_ascii; json's C encoder, built once with
# json.dumps's defaults, spells every other scalar, every non-string key and
# every empty container.

#: number text: a string of these characters alone needs no JSON escape
_NUMBER_TEXT = b"0123456789/-+i"
#: the value types of a flat row
_SCALAR_TYPES = {str, int, float, bool, type(None)}
#: ``_encode(v, 0)`` is the chunk list of ``json.dumps(v)``
_encode = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, _str_literal, None, ": ", ", ", False, False, True
)


def _json(node, nl: str, chunks: list[str]) -> None:
    """Append ``node`` as ``json.dumps(node, indent=2)`` writes it to
    ``chunks``, where ``nl`` is the newline and indent of its line."""
    if isinstance(node, str):
        chunks.append(_str_literal(node))
    elif isinstance(node, dict) and node:
        inner = nl + "  "
        lead = "{" + inner
        for k, v in node.items():
            chunks.append(lead + _key(k) + ": ")
            _json(v, inner, chunks)
            lead = "," + inner
        chunks.append(nl + "}")
    elif isinstance(node, (list, tuple)) and node:
        inner = nl + "  "
        sep = "," + inner
        chunks.append("[" + inner)
        kinds = set(map(type, node))
        if kinds <= _SCALAR_TYPES:
            quote, texts = _column(node, kinds)
            chunks.append(quote + (quote + sep + quote).join(texts) + quote)
        elif kinds == {dict} and (rows := _rows(node, inner)) is not None:
            chunks.append(rows)
        else:
            for i, v in enumerate(node):
                if i:
                    chunks.append(sep)
                _json(v, inner, chunks)
        chunks.append(nl + "]")
    else:
        chunks += _encode(node, 0)


def _column(values, kinds: set) -> tuple[str, Iterable[str]]:
    """The JSON texts of scalars of the types ``kinds``, and the quote that
    goes on both sides of each.  Strings that hold number text alone (one
    pass, checked on every call: a string is never assumed safe) go bare
    between quotes, other strings are escaped, ints are their repr, and
    json's encoder spells any other column."""
    if kinds == {str}:
        text = "".join(values)
        if text.isascii() and not text.encode("ascii").translate(None, _NUMBER_TEXT):
            return '"', values
        return "", map(_str_literal, values)
    if kinds == {int}:
        return "", map(int.__repr__, values)
    return "", ("".join(_encode(v, 0)) for v in values)


def _rows(rows: list, nl: str) -> str | None:
    """Dicts that share one key order and hold scalars only, joined by
    ``,`` and ``nl``; None for any other list.  Each row is one join of its
    values between the fixed text of the row, laid out once."""
    if len(set(map(tuple, rows))) != 1 or not rows[0]:
        return None
    inner = nl + "  "
    parts, lead, quote = [], "{" + inner, ""
    for key, column in zip(rows[0], zip(*map(dict.values, rows))):
        kinds = set(map(type, column))
        if not kinds <= _SCALAR_TYPES:
            return None
        quote, texts = _column(column, kinds)
        parts += (repeat(lead + _key(key) + ": " + quote), texts)
        lead = quote + "," + inner
    parts.append(repeat(quote + nl + "}"))
    return ("," + nl).join(map("".join, zip(*parts)))


def _key(k) -> str:
    """A dict key as json writes it: a str escaped, any other key spelled
    by json's encoder, which also refuses the keys json refuses."""
    if isinstance(k, str):
        return _str_literal(k)
    return "".join(_encode({k: None}, 0))[1:-7]


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


def _parse_grid(text: str) -> dict[str, list[CRat]]:
    axes: dict[str, list[CRat]] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, values = chunk.partition("=")
        name = name.strip()
        if name not in HeunParams.FIELD_NAMES:
            raise ValueError(f"unknown sweep parameter {name!r}")
        if name in axes:
            raise ValueError(f"sweep axis {name!r} is given more than once")
        vals = [CRat.parse(v.strip()) for v in values.split(",") if v.strip()]
        if not vals:
            raise ValueError(f"sweep axis {name!r} has no values")
        axes[name] = vals
    if not axes:
        raise ValueError("empty sweep grid")
    return axes


def _sweep_point(base: dict, n: int, overrides: dict) -> dict:
    merged = {**base, **overrides}
    point = {k: str(v) for k, v in merged.items()}
    try:
        params = HeunParams(**merged)
        payload = payload_analyze(params, n)
        return {"point": point, "report": payload}
    except _INVALID_PARAMETERS as exc:  # invalid points stay in-stream
        return {"point": point, "error": {"type": type(exc).__name__, "message": str(exc)}}


def run_sweep(args) -> str:
    axes = _parse_grid(args.grid)
    base = {name: getattr(args, name) for name in HeunParams.FIELD_NAMES}
    results = [
        _sweep_point(base, args.n, dict(zip(axes, combo)))
        for combo in product(*axes.values())
    ]
    return "".join(json.dumps(r) + "\n" for r in results)


# -- entry point ---------------------------------------------------------------


def _payload(args) -> dict:
    if args.command == "expand":
        return payload_expand(args.expr, args.j)
    params = _params_from_args(args)
    if args.command == "analyze":
        return payload_analyze(params, args.n)
    if args.command == "spectrum":
        return payload_spectrum(params, args.n, args.N)
    if args.command == "distsol":
        return payload_distsol(params, args.n, args.l, args.E, args.K, args.c0, args.c1)
    return payload_green(args, params)  # green, or its alias ssf


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        if args.command == "sweep":
            _params_from_args(args)  # validates the base point
            _check_n(args.n)
            text = run_sweep(args)
        else:
            text = _render(_payload(args), args.output)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
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
