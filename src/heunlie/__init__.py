"""heunlie: exact sl(2)-operator algebra for the Heun family.

The package root holds only ``__version__``.  The modules are the API; each
public name is imported from its own module:

- :mod:`heunlie.algpoly`  exact scalars, polynomials, differential operators
- :mod:`heunlie.sl2rep`   spin-j generators, enveloping-algebra words
- :mod:`heunlie.heunop`   operator forms, Frobenius data, solvability, flag spectra
- :mod:`heunlie.distsol`  weight expansion and the two three-term recurrences
- :mod:`heunlie.greenssf` delta algebra, Green kernels, spectral shift, norms
- :mod:`heunlie.cli`      the ``heunlie`` command
"""

__version__ = "0.1.0"
