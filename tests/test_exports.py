import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import heunlie
from heunlie import heunop
from heunlie.algpoly import DiffOp, HeunParams, Polynomial
from heunlie.distsol import RecurrenceSpec
from heunlie.greenssf import (
    KernelScalars,
    green_coincidence,
    green_kernel,
    hs_norm_sq,
    kp_constant,
)
from heunlie.heunop import DiscrepancyReport

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
    # holds for every module's imports from its siblings, not only cli's (the
    # package root imports nothing; see the test of its one name)
    import ast
    import inspect

    hidden = []
    for importer in (f"heunlie.{name}" for name in MODULES):
        tree = ast.parse(inspect.getsource(importlib.import_module(importer)))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
                mod = importlib.import_module(f"heunlie.{node.module}")
                for alias in node.names:
                    if inspect.isfunction(getattr(mod, alias.name)) and alias.name not in mod.__all__:
                        hidden.append(f"{importer}: {node.module}.{alias.name}")
    assert not hidden, f"sibling imports of functions missing from __all__: {hidden}"


def test_greenssf_imports_no_spin_module():
    # the kernel takes its scalars as inputs: greenssf derives nothing from
    # the Heun operator, so it imports neither heunop nor sl2rep
    import ast

    import heunlie.greenssf

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(heunlie.greenssf))):
        if isinstance(node, ast.ImportFrom) and node.module:  # from .heunop import x
            imported.add(node.module)
        if isinstance(node, (ast.Import, ast.ImportFrom)):  # from . import heunop
            imported.update(alias.name for alias in node.names)
    assert "algpoly" in imported
    assert not {"heunop", "sl2rep"} & {name.rpartition(".")[2] for name in imported}


def test_only_algpoly_reads_the_polynomial_table():
    # the numerator table and denominator of a Polynomial are algpoly's
    # format: every other module reads coefficients through coeffs/coeff(k)
    import ast

    private = set(Polynomial.__slots__)
    readers = []
    for name in MODULES:
        if name == "algpoly":
            continue
        mod = importlib.import_module(f"heunlie.{name}")
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            field = (node.attr if isinstance(node, ast.Attribute)
                     else node.value if isinstance(node, ast.Constant) else None)
            if field in private:
                readers.append(f"{name}:{node.lineno}: {field}")
    assert private == {"_num", "_den"}
    assert not readers, f"modules other than algpoly read the polynomial table: {readers}"


def test_cli_reads_flags_from_its_own_table():
    # a command's flags are cli._COMMANDS: the direct reader never decodes
    # argparse's parser objects, which are argparse's private format
    import heunlie.cli

    source = inspect.getsource(heunlie.cli)
    private = ["_option_string_actions", "_StoreAction", "_get_value(", "_check_value(",
               "._actions", "._commands"]
    assert [name for name in private if name in source] == []


def test_only_algpoly_checks_for_bool():
    # isinstance(x, bool) is the sign of a hand-rolled integer check: every
    # other module takes its integers through algpoly.exact_int/exact_count
    import ast

    checks = []
    for name in MODULES:
        if name == "algpoly":
            continue
        mod = importlib.import_module(f"heunlie.{name}")
        for node in ast.walk(ast.parse(inspect.getsource(mod))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                types = node.args[1]
                names = types.elts if isinstance(types, ast.Tuple) else [types]
                if any(isinstance(t, ast.Name) and t.id == "bool" for t in names):
                    checks.append(f"{name}:{node.lineno}")
    assert not checks, f"modules other than algpoly test for bool: {checks}"


SCALARS = KernelScalars(n=1, a=2, rho=1, sigma=3, tau=2)
# constants that no caller sets: passing one as a parameter is a TypeError
REMOVED_PARAMETERS = {
    "kp_constant s_eval": lambda: kp_constant(SCALARS, s_eval=0),
    "kp_constant p_override": lambda: kp_constant(SCALARS, p_override=2),
    "hs_norm_sq s_eval": lambda: hs_norm_sq(SCALARS, s_eval=0),
    "hs_norm_sq p_override": lambda: hs_norm_sq(SCALARS, p_override=2),
    "green_coincidence s_eval": lambda: green_coincidence(SCALARS, 1, s_eval=0),
    "green_coincidence p_override": lambda: green_coincidence(SCALARS, 1, p_override=2),
    "DiscrepancyReport rows": lambda: DiscrepancyReport(rows=()),
    "DiscrepancyReport rows, positional": lambda: DiscrepancyReport(()),
    "Polynomial.monomial coeff": lambda: Polynomial.monomial(2, coeff=3),
    "Polynomial.monomial coeff, positional": lambda: Polynomial.monomial(2, 3),
    "DiffOp.d order": lambda: DiffOp.d(order=2),
    "DiffOp.d order, positional": lambda: DiffOp.d(2),
}


@pytest.mark.parametrize("name", sorted(REMOVED_PARAMETERS))
def test_removed_parameter_raises_type_error(name):
    with pytest.raises(TypeError, match="unexpected keyword argument|positional argument"):
        REMOVED_PARAMETERS[name]()


# alias constructors (each input record has one constructor, which
# validates), and the spin-derived kernel scalars, which reached no kernel:
# the raising-free rho = 3(1-n)/2 is a positive integer for no n >= 0
REMOVED_CONSTRUCTORS = {
    "KernelScalars.direct": lambda: KernelScalars.direct(1, 2, 1, 3, 2),
    "KernelScalars.from_heun": lambda: KernelScalars.from_heun(1, None),
    "heunop.expanded_es_coeffs": lambda: heunop.expanded_es_coeffs(1, None),
    "RecurrenceSpec.make": lambda: RecurrenceSpec.make(l=1),
    "HeunParams.from_strings": lambda: HeunParams.from_strings(a=2, q=0, alpha=1, beta=1,
                                                               gamma=1, delta=1, epsilon=0),
}


@pytest.mark.parametrize("name", sorted(REMOVED_CONSTRUCTORS))
def test_removed_constructor_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name.split('.')[1]}'$"):
        REMOVED_CONSTRUCTORS[name]()


def test_package_root_holds_only_the_version():
    # each public name is imported from its own module: the root re-exports
    # nothing, so importing it loads no module of the package
    script = ("import json, sys, heunlie; print(json.dumps(["
              "sorted(m for m in sys.modules if m.startswith('heunlie.')),"
              "sorted(n for n in vars(heunlie) if not n.startswith('_')),"
              "heunlie.__version__]))")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(heunlie.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == [[], [], heunlie.__version__]


def test_green_kernel_alone_takes_the_kernel_knobs():
    knobs = {
        fn.__name__: [name for name in inspect.signature(fn).parameters
                      if name not in ("scalars", "E")]
        for fn in (green_kernel, kp_constant, hs_norm_sq, green_coincidence)
    }
    assert knobs == {"green_kernel": ["s_eval", "p_override"], "kp_constant": [],
                     "hs_norm_sq": [], "green_coincidence": []}
