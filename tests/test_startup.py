"""Start-up: each command loads only the package modules whose code it
runs, and none loads ``dataclasses``; each line runs in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import heunlie

SRC = str(pathlib.Path(heunlie.__file__).parents[1])
PARAMS = ["--a=2", "--q=1/3", "--alpha=-2", "--beta=-1/2", "--gamma=1/3", "--delta=1/2",
          "--epsilon=-7/3"]
KERNEL = ["--rho=1", "--sigma=3", "--tau=2"]
HEUN = {"algpoly", "sl2rep", "heunop", "cli"}

# command line -> (exit code, the heunlie modules it loads)
LINES = {
    "green": (["green", *KERNEL, *PARAMS], 0, {"algpoly", "greenssf", "cli"}),
    "ssf": (["ssf", *KERNEL, "--lambda=-1", *PARAMS], 0, {"algpoly", "greenssf", "cli"}),
    # --rho/--sigma/--tau are required: argparse refuses the line before
    # any spin module loads
    "green derived": (["green", "--n=0", *PARAMS], 2, {"algpoly", "cli"}),
    "expand": (["expand", "--expr=1/2 * +0 + 1/2 * 0+", "--j=1/2"], 0,
               {"algpoly", "sl2rep", "cli"}),
    "analyze": (["analyze", "--n=2", *PARAMS], 0, HEUN),
    "spectrum": (["spectrum", "--n=2", *PARAMS], 0, HEUN),
    "sweep": (["sweep", "--n=2", "--grid=a=1,2", *PARAMS], 0, HEUN),
    "distsol": (["distsol", "--n=2", "--l=1", "--K=8", *PARAMS], 0, HEUN | {"distsol"}),
    "missing flags": (["green", *KERNEL], 2, {"algpoly", "cli"}),
    "a = 1": (["green", *KERNEL, "--a=1", *PARAMS[1:]], 2, {"algpoly", "cli"}),
}

SCRIPT = """
import contextlib, io, json, sys
before = set(sys.modules)
import heunlie.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = heunlie.cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
loaded = set(sys.modules) - before
print(json.dumps([code, sorted(m[8:] for m in loaded if m.startswith("heunlie.")),
                  "dataclasses" in loaded]))
"""


def _fresh(*args) -> list:
    done = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("name", LINES)
def test_a_command_loads_only_what_it_runs(name):
    argv, code, modules = LINES[name]
    assert _fresh("-c", SCRIPT, json.dumps(argv)) == [code, sorted(modules), False]


def test_a_module_resolves_on_first_access():
    # the benchmark's tracer reaches every module as an attribute of the root
    script = ("import json, sys, heunlie; name = heunlie.distsol.__name__;"
              "loaded = sorted(m for m in sys.modules if m.startswith('heunlie.'));"
              "print(json.dumps([name, loaded]))")
    assert _fresh("-c", script) == ["heunlie.distsol", ["heunlie.algpoly", "heunlie.distsol"]]
    with pytest.raises(AttributeError, match="has no attribute 'nothing'"):
        heunlie.nothing  # noqa: B018
