"""The "Library usage" example of README.md runs as printed, and its
commented results hold, so the documented API cannot be pruned unnoticed;
and each command line of its "Command line" block exits 0 with JSON, so the
documented flags cannot drift away from the parser."""

import importlib
import json
import math
import pathlib
import re
import shlex
from fractions import Fraction

import pytest

from heunlie import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    m = re.search(r"^## Library usage\n+```python\n(.*?)^```", text, re.M | re.S)
    assert m, "README.md has no python block under '## Library usage'"
    return m.group(1)


def test_library_usage_runs_and_its_comments_hold():
    block = _library_block()
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    assert ns["report"].residual("sigma_general") == 0
    assert ns["es_condition"](Fraction(1), ns["p"]) == 0
    (residual_line,) = [line for line in block.splitlines() if line.startswith("all(")]
    assert eval(residual_line.split("#")[0], ns) is True


def _command_lines() -> list[list[str]]:
    """Each ``heunlie ...`` line of the block under "## Command line", with
    its backslash continuations joined, split as a shell would."""
    text = README.read_text(encoding="utf-8")
    m = re.search(r"^## Command line\n.*?^```\n(.*?)^```", text, re.M | re.S)
    assert m, "README.md has no command block under '## Command line'"
    joined = m.group(1).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("heunlie ")]


@pytest.mark.parametrize("argv", _command_lines(), ids=lambda argv: argv[0])
def test_documented_command_lines_run(argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "sweep":
        rows = [json.loads(row) for row in out.splitlines()]
        assert len(rows) == math.prod(len(axis.split(",")) for axis in
                                      argv[argv.index("--grid") + 1].split(";"))
        assert all("report" in row for row in rows)
    else:
        assert isinstance(json.loads(out), dict)


def test_package_layout_names_exist():
    # each backticked name in a library row of the "Package layout" table is
    # an attribute of that module, so the table cannot list a deleted name
    text = README.read_text(encoding="utf-8")
    m = re.search(r"^## Package layout\n(.*?)^#", text, re.M | re.S)
    assert m, "README.md has no '## Package layout' section"
    rows = dict(re.findall(r"^\| `heunlie\.(\w+)` +\|(.*)\|$", m.group(1), re.M))
    modules = ["algpoly", "sl2rep", "heunop", "distsol", "greenssf"]
    assert list(rows)[:len(modules)] == modules
    missing = [f"{module}.{name}" for module in modules
               for name in re.findall(r"`([^`]+)`", rows[module])
               if not hasattr(importlib.import_module(f"heunlie.{module}"), name)]
    assert missing == []
