import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import heunlie
from heunlie.algpoly import DiffOp, HeunParams, Polynomial
from heunlie.distsol import RecurrenceSpec
from heunlie import greenssf, heunop
from heunlie.greenssf import GreenKernel, KernelScalars, green_kernel
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


def test_cli_reads_no_private_name_of_a_sibling():
    # a sibling's underscore names are its own format: cli reads the library
    # through public names, whether imported or read as _lib.<module>.<name>
    # (or through a local bound to _lib.<module>)
    import ast

    import heunlie.cli

    def sibling(node):
        if isinstance(node, ast.Name):
            return node.id in MODULES
        return (isinstance(node, ast.Attribute) and node.attr in MODULES
                and isinstance(node.value, ast.Name) and node.value.id == "_lib")

    private = []
    for node in ast.walk(ast.parse(inspect.getsource(heunlie.cli))):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in MODULES:
            private += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and sibling(node.value):
            private.append(f"{node.lineno}: {ast.unparse(node)}")
    assert not private, f"cli reads private names of sibling modules: {private}"


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
# validates), the spin-derived kernel scalars, which reached no kernel (the
# raising-free rho = 3(1-n)/2 is a positive integer for no n >= 0), and the
# one-off readers of a fresh heunop.Analysis or GreenKernel, whose stages and
# fields the callers read directly
REMOVED_CONSTRUCTORS = {
    "KernelScalars.direct": lambda: KernelScalars.direct(1, 2, 1, 3, 2),
    "KernelScalars.from_heun": lambda: KernelScalars.from_heun(1, None),
    "heunop.expanded_es_coeffs": lambda: heunop.expanded_es_coeffs(1, None),
    "RecurrenceSpec.make": lambda: RecurrenceSpec.make(l=1),
    "HeunParams.from_strings": lambda: HeunParams.from_strings(a=2, q=0, alpha=1, beta=1,
                                                               gamma=1, delta=1, epsilon=0),
    "heunop.verify_theorem1": lambda: heunop.verify_theorem1(1, None),
    "heunop.es_operator": lambda: heunop.es_operator(2, None),
    "heunop.es_discrepancies": lambda: heunop.es_discrepancies(2, None),
    "heunop.es_spectrum": lambda: heunop.es_spectrum(2, None, 2),
    "greenssf.kp_constant": lambda: greenssf.kp_constant(SCALARS),
    "greenssf.hs_norm_sq": lambda: greenssf.hs_norm_sq(SCALARS),
    "greenssf.green_coincidence": lambda: greenssf.green_coincidence(SCALARS, 1),
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
        fn.__qualname__: [name for name in inspect.signature(fn).parameters
                          if name not in ("self", "scalars", "E")]
        for fn in (green_kernel, GreenKernel.hs_norm_sq, GreenKernel.coincidence)
    }
    assert knobs == {"green_kernel": ["s_eval", "p_override"], "GreenKernel.hs_norm_sq": [],
                     "GreenKernel.coincidence": []}
