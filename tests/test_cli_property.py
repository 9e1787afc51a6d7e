"""The command line as a whole: every drawn command line ends with a
documented exit code (or argparse's 2), writes nothing to stdout unless it
exits 0, and on exit 0 writes JSON (one line per point for a sweep).

Draws cover all seven command names, valid and invalid exact literals,
spin integers around 0..8, truncations up to K = 12, scalar-mode flags and
sweep grids, valid and not.
"""

import contextlib
import io
import json

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from heunlie import cli

PARAMS = ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon")
VALID = ("0", "1", "2", "-1", "3", "3/2", "-2/3", "5/4", "1/3", "-1/2", "2+i", "1-1/2i", "-3i")
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
        if draw(st.booleans()):  # scalar mode; a spoiled line may leave it partial
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
