import importlib

import pytest

MODULES = ["algpoly", "sl2rep", "heunop", "distsol", "greenssf", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_exists(name):
    # a stale import fails at import time, but a stale __all__ entry only
    # fails for ``from module import *`` and for tools that walk __all__
    mod = importlib.import_module(f"heunlie.{name}")
    missing = [entry for entry in mod.__all__ if not hasattr(mod, entry)]
    assert not missing, f"heunlie.{name}.__all__ names missing attributes: {missing}"
