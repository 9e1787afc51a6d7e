"""The JSON writer of ``cli._render`` against ``json.dumps(x, indent=2)``:
the same bytes for every JSON tree, including the shapes it joins in one
step (lists of strings, lists of flat dicts with one key order)."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie import cli
from heunlie.cli import _render

NUMBER_TEXT = ["-3/2", "1+2i", "0", "-12/5-1/3i", "7i", "+", "-", "/", "i"]
SPECIAL_TEXT = ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "é", " ", "\ud800", "𝄞",
                "%", "%s", "%(k)s", "", "1/2\n", "3\"/4"]

text_st = st.one_of(
    st.text(max_size=8),
    st.sampled_from(NUMBER_TEXT + SPECIAL_TEXT),
    st.text(alphabet="0123456789/-+i", max_size=12),
)
float_st = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-05, 1.5, -2.25e-300]),
)
scalar_st = st.one_of(st.none(), st.booleans(), st.integers(), float_st, text_st)
key_st = st.one_of(text_st, st.integers(-5, 5), float_st, st.booleans(), st.none())


@st.composite
def rows_st(draw, children):
    """A list of dicts sharing keys: in one order, in shuffled orders, or
    with one value replaced by a nested one."""
    keys = draw(st.lists(text_st, unique=True, min_size=1, max_size=4))
    column_kinds = [draw(st.sampled_from([text_st, st.integers(), scalar_st])) for _ in keys]
    rows = [
        {k: draw(kind) for k, kind in zip(keys, column_kinds)}
        for _ in range(draw(st.integers(1, 5)))
    ]
    shape = draw(st.sampled_from(["same order", "shuffled", "nested"]))
    if shape == "shuffled":
        rows = [dict(draw(st.permutations(list(row.items())))) for row in rows]
    elif shape == "nested":
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(keys))] = draw(children)
    return rows


def extend(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(text_st, max_size=6),
        st.dictionaries(text_st, children, max_size=5),
        st.dictionaries(key_st, children, max_size=3),
        rows_st(children),
    )


tree_st = st.recursive(scalar_st, extend, max_leaves=30)


def dumped(x) -> str:
    return json.dumps(x, indent=2) + "\n"


class TestWriterIsJsonDumps:
    @given(tree_st)
    @example({})
    @example([])
    @example({"a": [], "b": {}, "c": ()})
    @example(["-3/2", "1+2i", ""])
    @example(["", ""])
    @example(["-", "i"])
    @example(["1/2", 'x"'])
    @example(["0", "é"])
    @example([{"k": 2, "value": "0"}, {"k": 3, "value": "-3/2"}])
    @example([{"k": 2, "value": "0"}, {"value": "0", "k": 3}])
    @example([{"k": 2, "value": [1]}, {"k": 3, "value": [2]}])
    @example([{"%k": True, "v": 1}, {"%k": 3, "v": None}])
    @example([{"a": 1.0, "b": math.nan}, {"a": -0.0, "b": math.inf}])
    @example([{}, {}])
    @example({1: "a", 2.5: "b", False: "c", None: "d", math.nan: 1, -math.inf: 2})
    @example((1, (2, 3), {"x": (4,)}))
    @example([1e16, 1e-05, -0.0, math.nan, math.inf, -math.inf, True, 1, False, 0])
    @settings(max_examples=400, deadline=None)
    def test_same_bytes(self, x):
        assert _render(x, "json") == dumped(x)

    @pytest.mark.parametrize("x", [{1, 2}, [object()], {"a": b"bytes"}, {(1, 2): 3},
                                   [{"k": 1j}, {"k": 2j}]])
    def test_unserializable_values_raise_type_error(self, x):
        with pytest.raises(TypeError):
            json.dumps(x, indent=2)
        with pytest.raises(TypeError):
            _render(x, "json")


PARAMS = ["--a=3", "--q=1/2", "--alpha=-2/3", "--beta=5/4", "--gamma=1/3",
          "--delta=-1/2", "--epsilon=7/5"]
GREEN = [*PARAMS, "--n=1", "--rho=1", "--sigma=5", "--tau=3", "--s-eval=1/2-3i",
         "--E=-2/3", "--lambda=-2.5"]
COMMANDS = {
    "analyze": ["analyze", "--n=8", *PARAMS],  # a float spectrum
    "spectrum": ["spectrum", "--n=2", "--a=2", "--q=1", "--alpha=-2", "--beta=-1/2",
                 "--gamma=1/3", "--delta=1/2", "--epsilon=-7/3"],
    "distsol": ["distsol", "--n=2", "--l=2", "--K=12", "--E=3/2-1/2i", "--c0=1+i",
                "--c1=-1/3", *PARAMS],
    "green": ["green", *GREEN],
    "ssf": ["ssf", *GREEN],
    "expand": ["expand", "--expr=1/2 * +0 + 1/2 * 0+", "--j=1/2"],  # escaped operator text
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_reports_never_reach_the_pure_python_encoder(monkeypatch, name):
    payload = cli._payload(cli.build_parser().parse_args(COMMANDS[name]))
    expected = dumped(payload)

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert _render(payload, "json") == expected
