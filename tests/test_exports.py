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


def test_cli_imports_only_public_functions():
    # the benchmark tracer wraps only the functions a module lists in
    # __all__, so a function reached under any other name goes untimed; this
    # holds for every module's imports from its siblings, not only cli's, and
    # for the package's own re-exports
    import ast
    import inspect

    hidden = []
    for importer in ["heunlie", *(f"heunlie.{name}" for name in MODULES)]:
        tree = ast.parse(inspect.getsource(importlib.import_module(importer)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
                mod = importlib.import_module(f"heunlie.{node.module}")
                for alias in node.names:
                    if inspect.isfunction(getattr(mod, alias.name)) and alias.name not in mod.__all__:
                        hidden.append(f"{importer}: {node.module}.{alias.name}")
    assert not hidden, f"sibling imports of functions missing from __all__: {hidden}"
