"""The command line as a whole: every drawn command line ends with a
documented exit code (or argparse's 2), writes nothing to stdout unless it
exits 0, and on exit 0 writes JSON (one line per point for a sweep).  Every
line, whether read from the flag table or parsed by argparse, gives
the exit code, stdout and stderr of the full parser.

Draws cover all seven command names, valid and invalid exact literals,
spin integers around 0..8, truncations up to K = 12, kernel scalars and
sweep grids, valid and not.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from heunlie import cli
from util import reference_parse

PARAMS = ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon")
VALID = ("0", "1", "2", "-1", "3", "3/2", "-2/3", "5/4", "1/3", "-1/2", "2+i", "1-1/2i", "-3i",
         # flag-matrix entries near and past the float range
         "1" + "0" * 90, "-7/1" + "0" * 90, "1" + "0" * 400, "3" + "0" * 200 + "i")
BIG, HUGE = str(10 ** 100), str(10 ** 400)
UNIT = ["--q=1", "--alpha=1", "--beta=1", "--delta=1", "--epsilon=1"]
INVALID = ("1.5", "x", "", "1/0", "2e3", "3//2", "i1", "nan")
literal_st = st.sampled_from(VALID)
small_int_st = st.integers(-1, 8)
EXPRS = ("1/2 * +0 + 1/2 * 0+", "+", "2 * -+ + (-1)", "1/3 * 0 + (2+i)", "", "x * +",
         "1/2 * +x", "* +", "1/2 * ++--")
SPINS = ("0", "1/2", "1", "3/2", "2", "-1", "1.5", "1+i", "abc")
LAMBDAS = ("1", "-1", "0", "-0.0", "1e-3", "-1e-3", "1e-400", "nan", "inf", "abc", "2/3")
#: exit codes a command line may end with: success, invalid parameters (also
#: argparse's refusal), structural failure, I/O failure; never the tripwire 3
DOCUMENTED = {0, 2, 4, 5}


@st.composite
def grid_st(draw):
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(("", "zeta=1", "a=", "a=1;a=2", "a=x", "q=1.5", ";")))
    names = draw(st.lists(st.sampled_from(PARAMS), min_size=1, max_size=2, unique=True))
    return ";".join(
        f"{name}=" + ",".join(draw(st.lists(literal_st, min_size=1, max_size=3)))
        for name in names
    )


@st.composite
def command_line_st(draw):
    command = draw(st.sampled_from(("analyze", "expand", "spectrum", "distsol", "green",
                                    "ssf", "sweep")))
    argv = [command]

    def flag(name, values, omit=0.0):  # omitted with probability ``omit``
        if omit and draw(st.floats(0, 1)) < omit:
            return
        argv.append(f"--{name}={draw(values)}")

    if command == "expand":
        flag("expr", st.sampled_from(EXPRS), omit=0.05)
        flag("j", st.sampled_from(SPINS), omit=0.05)
    else:
        for name in PARAMS:
            flag(name, literal_st)
        flag("n", small_int_st, omit=0.2)
    if command == "spectrum":
        flag("N", small_int_st, omit=0.5)
    elif command == "distsol":
        flag("l", st.integers(-1, 5), omit=0.05)
        flag("K", st.integers(0, 12))
        for name in ("E", "c0", "c1"):
            flag(name, literal_st, omit=0.5)
    elif command in ("green", "ssf"):
        flag("s-eval", literal_st, omit=0.5)
        flag("p-override", st.integers(-1, 6), omit=0.6)
        flag("E", literal_st, omit=0.5)
        flag("lambda", st.sampled_from(LAMBDAS), omit=0.4)
        # the kernel scalars are required; a spoiled line may drop one
        for name in ("rho", "sigma", "tau"):
            flag(name, st.sampled_from(("1", "2", "3", "4", "3/2", "-1", "0")))
    elif command == "sweep":
        flag("grid", grid_st(), omit=0.05)
    if command != "sweep":
        flag("output", st.sampled_from(("json", "text")), omit=0.5)
    if len(argv) > 1 and draw(st.integers(0, 3)) == 0:
        # spoil one flag: drop it (a required one is argparse's 2) or give it
        # an invalid literal
        i = draw(st.integers(1, len(argv) - 1))
        if draw(st.booleans()):
            del argv[i]
        else:
            argv[i] = argv[i].partition("=")[0] + "=" + draw(st.sampled_from(INVALID))
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            assert exc.code == 2
            code = 2
    return code, out.getvalue()


ES_BASE = ["--a=2", "--q=1", "--alpha=-1", "--beta=0", "--gamma=1/3", "--delta=1/2",
           "--epsilon=-5/6"]


@given(command_line_st())
@example(["analyze", *ES_BASE, "--n=1"])
@example(["spectrum", *ES_BASE, "--n=1", "--N=3"])  # overflows: exit 4
@example(["distsol", *ES_BASE, "--n=1", "--l=2", "--K=12", "--c1=2/3"])
@example(["green", *ES_BASE, "--n=1", "--rho=1", "--sigma=2", "--tau=2"])
@example(["sweep", *ES_BASE, "--n=2", "--grid=a=1,2;q=0,1/2"])
@example(["analyze", "--n=4", f"--a={BIG}", f"--gamma={BIG}", *UNIT])
@example(["spectrum", "--n=4", f"--a={BIG}", f"--gamma={BIG}", "--q=1", "--alpha=-4", "--beta=1",
          "--delta=1", f"--epsilon={-3 - 10 ** 100}"])
@example(["analyze", "--n=4", f"--a={HUGE}", "--gamma=1", *UNIT])
@example(["sweep", "--n=4", "--a=2", f"--gamma={BIG}", *UNIT, f"--grid=a=2,{BIG},{HUGE}"])
@example(["expand", "--expr=--", "--j=1/2"])  # argparse's 2, not a traceback
@example(["analyze", *ES_BASE, "--output=--"])  # argparse's 2, not a text report
# two eigenvalues whose LAPACK vector fails its residual, but whose values
# pass the singular-value check: exit 0, not the tripwire's 3
@example(["analyze", f"--a=3{'0' * 200}i", "--q=0", "--alpha=0", "--beta=0", "--gamma=0",
          "--delta=0", f"--epsilon=1{'0' * 90}", "--n=2"])
@settings(max_examples=300, deadline=None)
def test_every_command_line_ends_with_a_documented_exit(argv):
    code, out = run_main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in DOCUMENTED, (argv, code)
    if code:
        assert out == ""
        return
    if argv[0] == "sweep":
        rows = out.splitlines()
        assert rows and all("point" in json.loads(row) for row in rows)
    elif "--output=text" in argv:
        assert out.endswith("\n") and out.strip()
    else:
        assert isinstance(json.loads(out), dict)


# -- the parse against the full parser -----------------------------------------------

#: flags no command has, abbreviations (unique in some parsers, ambiguous in
#: others: --s is --s-eval or --sigma, --o is --output or --out) and help
ODD_FLAGS = ("--zeta=1", "--bogus", "-x", "--alp=2", "--ep=1/2", "--gam=1", "--s=1",
             "--o=json", "--lam=1", "--N=2", "-h", "--help", "--", "extra")
ODD_WORDS = ("", "greens", "an", "ssf2", "Green", "-", "1", "--n=1")


@st.composite
def parser_line_st(draw):
    """A command line from ``command_line_st``, then spoiled for the parser:
    an odd flag or word put anywhere, a flag moved before the command, the
    command word dropped or replaced."""
    argv = draw(command_line_st())
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(("insert", "front", "drop", "replace", "help")))
        if how == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ODD_FLAGS)))
        elif how == "front" and len(argv) > 1:
            argv.insert(0, argv.pop(draw(st.integers(1, len(argv) - 1))))
        elif how == "drop" and argv:
            del argv[0]
        elif how == "replace" and argv:
            argv[0] = draw(st.sampled_from(ODD_WORDS))
        elif how == "help":
            argv.insert(draw(st.sampled_from((0, 1, len(argv)))), draw(st.sampled_from(
                ("-h", "--help"))))
    return argv


def outcome(argv):
    """Exit code, stdout and stderr of ``cli.main(argv)``; argparse's exit
    code when it refuses the line or prints help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


GREEN = ["green", *ES_BASE, "--n=1", "--rho=1", "--sigma=2", "--tau=2"]


@given(parser_line_st())
@example([])
@example(["-h"])
@example(["--help", "green"])
@example(["green", "--help"])
@example(["ssf", "-h"])
@example(["bogus", *GREEN[1:]])
@example(GREEN[1:])  # no command word
@example([GREEN[1], *GREEN[:1], *GREEN[2:]])  # a flag before the command
@example([*GREEN, "extra"])  # a word left over
@example([*GREEN, "--zeta=1"])
@example([*GREEN[:-1], "--alp=1"])  # --alp=1 is --alpha=1 given twice
@example(["green", *ES_BASE[1:], "--n=1"])  # --a missing
@example(["green", *GREEN[2:], "--a=1/0"])
@example(["green", "--s=1", *GREEN[1:]])  # ambiguous
@example(["analyze", "--", *ES_BASE])
# a value of "--" is [] to argparse
@example(["expand", "--expr=--", "--j=1/2"])
@example([*GREEN, "--out=--"])
@example(["sweep", *ES_BASE, "--n=2", "--grid=--"])
@example([*GREEN, "--out="])
@example([*GREEN, "--n=2"])  # an exact flag given twice
@example([*GREEN, "--help=1"])
@example([*GREEN, "--output=xml"])
@example([*GREEN, "-n=1"])
@example([*GREEN, "--lambda=nan"])
@settings(max_examples=300, deadline=None)
def test_one_pass_parse_matches_the_full_parser(argv):
    got = outcome(argv)
    with mock.patch.object(cli, "_parse", reference_parse):
        want = outcome(argv)
    event(f"exit {got[0]}")
    assert got == want, argv


def _argparse_calls(monkeypatch) -> list:
    """The parsers whose ``parse_known_args`` runs from now on, by ``prog``."""
    seen = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        seen.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    return seen


def test_a_green_line_never_reaches_argparse(monkeypatch):
    seen = _argparse_calls(monkeypatch)
    assert outcome(GREEN)[0] == 0
    assert seen == []
    with mock.patch.object(cli, "_parse", reference_parse):
        assert outcome(GREEN)[0] == 0
    assert seen == ["heunlie", "heunlie green"]


def test_no_string_default_needs_its_type():
    # argparse passes a str default of an absent flag through the action's
    # type; the direct path stores every default as it is, which is the same
    # while no str default has a type
    typed = [
        (word, flag)
        for word, (_, flags) in cli._COMMANDS.items()
        for flag, kw in flags.items()
        if isinstance(kw.get("default"), str) and kw.get("type") is not None
    ]
    assert typed == []


DIRECT_LINES = {
    "analyze": ["analyze", *ES_BASE, "--n=1"],
    "expand": ["expand", "--expr=1/2 * +0 + 1/2 * 0+", "--j=1/2"],
    "spectrum": ["spectrum", *ES_BASE, "--n=1", "--N=1"],
    "distsol": ["distsol", *ES_BASE, "--n=1", "--l=1", "--K=4"],
    "green": GREEN,
    "ssf": ["ssf", *GREEN[1:]],
    "sweep": ["sweep", *ES_BASE, "--n=1", "--grid=q=0,1"],
}


def test_direct_lines_build_no_parser():
    assert sorted(DIRECT_LINES) == sorted(cli._FLAGS)
    for word, argv in DIRECT_LINES.items():
        cli.build_parser.cache_clear()
        assert outcome(argv)[0] == 0, word
        assert cli.build_parser.cache_info().misses == 0, word


BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = bench  # its dataclasses look their module up
    try:
        spec.loader.exec_module(bench)
    finally:
        del sys.modules[spec.name]
    return bench


def test_every_benchmark_line_is_read_without_argparse(monkeypatch):
    """The lines the benchmark runs (every op at seed 4200 for 30 s, and
    the warm-ups) take the direct path, so a change of their spelling cannot
    send the benchmark back through argparse unseen."""
    lines = [
        argv
        for workload in _load_bench().WORKLOADS.values()
        for argv in (*(op.argv for op in workload.ops(4200, 30)), *workload.warmup)
    ]
    assert len(lines) > 100
    seen = _argparse_calls(monkeypatch)
    for argv in lines:
        args = cli._parse(argv)
        assert seen == [], argv
        assert vars(args) == vars(reference_parse(argv)), argv
        seen.clear()
