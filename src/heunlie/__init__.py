"""heunlie: exact sl(2)-operator algebra for the Heun family.

The package root holds only ``__version__``.  The modules are the API; each
public name is imported from its own module:

- :mod:`heunlie.algpoly`  exact scalars, polynomials, differential operators,
  the Heun parameters and the errors every command maps to an exit code
- :mod:`heunlie.sl2rep`   spin-j generators, enveloping-algebra words
- :mod:`heunlie.heunop`   operator forms, Frobenius data, solvability, flag spectra
- :mod:`heunlie.distsol`  weight expansion and the two three-term recurrences
- :mod:`heunlie.greenssf` delta algebra, Green kernels, spectral shift, norms
- :mod:`heunlie.cli`      the ``heunlie`` command

Importing the root loads none of them; ``heunlie.<module>`` imports the
module on first access (PEP 562).
"""

__version__ = "0.1.0"

_MODULES = ("algpoly", "sl2rep", "heunop", "distsol", "greenssf", "cli")


def __getattr__(name):
    if name in _MODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
