"""heunlie: exact sl(2)-operator algebra for the Heun family.

Modules:

- :mod:`heunlie.algpoly`  exact scalars, polynomials, differential operators
- :mod:`heunlie.sl2rep`   spin-j generators, enveloping-algebra words
- :mod:`heunlie.heunop`   operator forms, Frobenius data, solvability, flag spectra
- :mod:`heunlie.distsol`  weight expansion and the two three-term recurrences
- :mod:`heunlie.greenssf` delta algebra, Green kernels, spectral shift, norms
- :mod:`heunlie.cli`      the ``heunlie`` command
"""

__version__ = "0.1.0"

from .algpoly import (
    CRat,
    DiffOp,
    Polynomial,
    Surd,
    commutator,
    op_apply,
    op_compose,
    quadratic_roots,
)
from .sl2rep import Spin, UEAExpr, make_generators, uea_expand
from .heunop import (
    INFINITY,
    DiscrepancyReport,
    ExpandedCoeffs,
    HeunParams,
    NotRegularSingular,
    OverflowColumn,
    UEACoeffs,
    build_canonical_cleared,
    build_expanded,
    es_condition,
    es_operator,
    es_spectrum,
    indicial_exponents,
    qes_matrix,
    uea_heun,
    verify_theorem1,
)
from .distsol import (
    CoeffSequence,
    DegenerateLeading,
    NonIntegerExponents,
    RecurrenceSpec,
    WeightExpansion,
    closed_form_roots_imag,
    closed_form_roots_real,
    falling_factorial,
    forward_imag,
    forward_real,
    paper_ck,
    recur_imag,
    recur_real,
    residual_check,
    weight_expansion,
    weight_value_at_zero,
)
from .greenssf import (
    DegenerateQuadratic,
    Distribution,
    GreenKernel,
    KernelScalars,
    SSFValue,
    SymbolCoeffs,
    ZeroEigenvalue,
    eta_roots,
    green_coincidence,
    green_kernel,
    hs_norm_sq,
    kp_constant,
    monomial_times_delta,
    pair,
    ssf,
    symbol_coeffs,
    trace_green,
)
