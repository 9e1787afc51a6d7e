"""The "Library usage" example of README.md runs as printed, and its
commented results hold, so the documented API cannot be pruned unnoticed."""

import pathlib
import re
from fractions import Fraction

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
