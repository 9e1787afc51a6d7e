"""Heun operator construction, Frobenius indicial data, enveloping-algebra
coefficient extraction with an independent expansion oracle, solvability
detection, and spectra on polynomial flags.

Ground truth for every coefficient formula audited here is the symbolic
expansion of the generator algebra; the audited formulas themselves live
only in :class:`DiscrepancyReport` rows, because several of them disagree
with the expansion (and with each other).  Each row records the published
value, the oracle value and their exact difference.  The rows, the
raising-free operator and its flag matrix are read from one
:class:`Analysis` of ``(n, params)`` at spin ``j = n/2``.

Sign convention: operators are stored with positive leading coefficient
``z (z - 1) (z - a)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .algpoly import (
    CR_ONE,
    CR_ZERO,
    CRat,
    DiffOp,
    HeunParams,
    OracleMismatch,
    OverflowColumn,
    Polynomial,
    Surd,
    _Record,
    exact_count,
    exact_int,
    monomial_images,
    quadratic_roots,
)
from .sl2rep import Spin, UEAExpr, make_generators, uea_expand

__all__ = [
    "UEACoeffs",
    "ExpandedCoeffs",
    "Discrepancy",
    "DiscrepancyReport",
    "NotRegularSingular",
    "INFINITY",
    "build_expanded",
    "build_canonical_cleared",
    "indicial_exponents",
    "uea_heun",
    "uea_heun_coeffs",
    "extract_expanded_coeffs",
    "Analysis",
    "es_condition",
    "qes_matrix",
    "is_lower_triangular",
    "is_upper_triangular",
    "matrix_diagonal",
    "matrix_spectrum",
    "EIG_RESIDUAL_TOL",
]

#: relative residual bound for floating eigenpairs of non-triangular matrices
EIG_RESIDUAL_TOL = 1e-10


class NotRegularSingular(ValueError):
    """The requested point does not carry regular-singular Frobenius data."""


class _Infinity:
    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


#: singular-point marker for the point at infinity
INFINITY = _Infinity()


def build_canonical_cleared(p: HeunParams) -> DiffOp:
    """Clear the canonical-form denominators by ``z (z-1) (z-a)``.

    Assembled from polynomial products of the linear factors, so this is an
    independent route to the same operator as :func:`build_expanded`.
    """
    z = Polynomial.variable()
    zm1 = z - Polynomial.one()
    zma = z - Polynomial([p.a])
    lead = z * zm1 * zma
    first = zm1 * zma * p.gamma + z * zma * p.delta + z * zm1 * p.epsilon
    zero = Polynomial([-p.q, p.alpha * p.beta])
    return DiffOp([zero, first, lead])


def build_expanded(p: HeunParams) -> DiffOp:
    """The operator with expanded coefficient lists:

    ``(z^3 - (1+a) z^2 + a z) D^2
      + [(g+d+e) z^2 - ((1+a) g + a d + e) z + g a] D + (ab z - q)``.

    The ``z``-coefficient of the first-order part is ``(1+a) gamma +
    a delta + epsilon``; evaluating the operator at the singular point 1
    must give ``delta (1 - a) D`` there, which pins the ``a delta`` term
    (see the ``eq3_linear_z_coeff`` discrepancy row for the variant that
    drops the factor ``a``).
    """
    return ExpandedCoeffs(
        rho=p.gamma + p.delta + p.epsilon,
        sigma=-((CR_ONE + p.a) * p.gamma + p.a * p.delta + p.epsilon),
        tau=p.gamma * p.a,
        abProduct=p.alpha * p.beta,
        qShift=p.q,
    ).assemble(p.a)


# -- Frobenius data ---------------------------------------------------------


def _indicial_roots(t2: Polynomial, t1: Polynomial, t0: Polynomial, where: CRat
                    ) -> tuple[Surd, Surd]:
    """Exponent pair from the local coefficients ``t2, t1, t0`` of ``D^2``,
    ``D`` and ``1`` (in powers of the local variable) at the point ``where``.

    With ``s`` the order of ``t2``, the point is regular singular when
    ``s >= 1``, ``t1`` has order at least ``s - 1`` and ``t0`` at least
    ``s - 2``; the exponents solve ``r (r - 1) + pc r + qc = 0``.
    """
    if t2.is_zero():
        raise NotRegularSingular("vanishing leading coefficient")
    s = next(i for i in range(t2.degree + 1) if t2.coeff(i))
    if s < 1:
        raise NotRegularSingular(f"{where} is an ordinary point (leading coefficient nonzero)")
    if any(t1.coeff(i) for i in range(s - 1)) or any(t0.coeff(i) for i in range(s - 2)):
        raise NotRegularSingular(
            f"coefficient fails the regular-singularity order condition at {where}"
        )
    lead = t2.coeff(s)
    pc = t1.coeff(s - 1) / lead
    qc = t0.coeff(s - 2) / lead if s >= 2 else CR_ZERO
    return quadratic_roots(CR_ONE, pc - CR_ONE, qc)


def indicial_exponents(L: DiffOp, point) -> tuple[Surd, Surd]:
    """Frobenius exponent pair of a second-order operator at a regular
    singular point (finite, or :data:`INFINITY`).

    At a finite ``z0`` the local coefficients are ``p_k(z0 + t)``.  At
    infinity ``z = 1/w`` turns ``D_z`` into ``-w^2 D_w`` and ``D_z^2`` into
    ``w^4 D_w^2 + 2 w^3 D_w``; with ``r_k = w^d p_k(1/w)``, ``d`` the largest
    coefficient degree, the cleared operator has the coefficients
    ``w^4 r_2``, ``2 w^3 r_2 - w^2 r_1`` and ``r_0`` at ``w = 0``.

    Roots of the indicial quadratic are exact quadratic surds; rational
    exponents collapse to plain rationals.
    """
    if L.order != 2:
        raise NotRegularSingular("indicial data implemented for second-order operators")
    p0, p1, p2 = L.terms
    if point is INFINITY:
        d = max(p.degree for p in L.terms)
        r2, r1, r0 = (Polynomial(p.coeff(d - i) for i in range(d + 1)) for p in (p2, p1, p0))
        w = Polynomial.variable()
        return _indicial_roots(r2 * w**4, (r2 * w * 2 - r1) * w**2, r0, CR_ZERO)
    z0 = CRat.from_value(point)
    shift = Polynomial.variable() + z0
    return _indicial_roots(*(p.eval(shift) for p in (p2, p1, p0)), z0)


# -- enveloping-algebra side -------------------------------------------------


class UEACoeffs(_Record):
    """The seven scalars of the quadratic generator combination."""

    cPlusZero: CRat
    cPlusMinus: CRat
    cZeroMinus: CRat
    cPlus: CRat
    cZero: CRat
    cMinus: CRat
    cConst: CRat

    def as_dict(self) -> dict:
        return {
            "c_plus_zero": str(self.cPlusZero),
            "c_plus_minus": str(self.cPlusMinus),
            "c_zero_minus": str(self.cZeroMinus),
            "c_plus": str(self.cPlus),
            "c_zero": str(self.cZero),
            "c_minus": str(self.cMinus),
            "c_const": str(self.cConst),
        }


def uea_heun_coeffs(j, p: HeunParams) -> UEACoeffs:
    j = Spin(j).j
    one = CR_ONE
    two_j_m1 = CRat(2 * j - 1)
    c_plus = p.gamma + p.delta + p.epsilon + CRat(Fraction(3, 2)) * two_j_m1
    c_zero = (two_j_m1 - p.gamma) * (one + p.a) - p.delta - p.epsilon
    c_minus = p.a * (p.gamma - two_j_m1 / CRat(2))
    c_const = (
        CRat(j) * ((CRat(2 * (1 - j)) + p.gamma) * (one + p.a) + p.delta + p.epsilon)
        - p.q
    )
    return UEACoeffs(
        cPlusZero=CRat(Fraction(1, 2)),
        cPlusMinus=-(one + p.a) / CRat(2),
        cZeroMinus=p.a / CRat(2),
        cPlus=c_plus,
        cZero=c_zero,
        cMinus=c_minus,
        cConst=c_const,
    )


def _uea_from_coeffs(c: UEACoeffs) -> UEAExpr:
    words = [
        (c.cPlusZero, "+0"),
        (c.cPlusZero, "0+"),
        (c.cPlusMinus, "+-"),
        (c.cPlusMinus, "-+"),
        (c.cZeroMinus, "0-"),
        (c.cZeroMinus, "-0"),
        (c.cPlus, "+"),
        (c.cZero, "0"),
        (c.cMinus, "-"),
    ]
    return UEAExpr(words, c.cConst)


def uea_heun(j, p: HeunParams) -> UEAExpr:
    """The quadratic generator combination for the full operator at spin j.

    The raising-grade admissibility residual is reported by
    :meth:`Analysis.theorem1_rows`, not enforced here.
    """
    return _uea_from_coeffs(uea_heun_coeffs(j, p))


class ExpandedCoeffs(_Record):
    """Coefficients read off an expanded operator
    ``z(z-1)(z-a) D^2 + (rho z^2 + sigma z + tau) D + (ab z - qShift)``."""

    rho: CRat
    sigma: CRat
    tau: CRat
    abProduct: CRat
    qShift: CRat

    @staticmethod
    def lead(a: CRat) -> Polynomial:
        """The leading coefficient ``z (z - 1) (z - a)`` of the shape."""
        return Polynomial([CR_ZERO, a, -(CR_ONE + a), CR_ONE])

    def assemble(self, a: CRat) -> DiffOp:
        first = Polynomial([self.tau, self.sigma, self.rho])
        zero = Polynomial([-self.qShift, self.abProduct])
        return DiffOp([zero, first, self.lead(a)])


def extract_expanded_coeffs(L: DiffOp, a) -> ExpandedCoeffs:
    """Read the five scalars off an operator in the expanded shape.

    Raises :class:`OracleMismatch` when the leading coefficient is not
    exactly ``z (z - 1) (z - a)`` or the lower parts exceed their degrees.
    """
    if L.coeff(2) != ExpandedCoeffs.lead(CRat.from_value(a)) or L.order != 2:
        raise OracleMismatch("operator is not in the expanded normal shape")
    first = L.coeff(1)
    zero = L.coeff(0)
    if first.degree > 2 or zero.degree > 1:
        raise OracleMismatch("lower-order coefficients exceed the normal shape degrees")
    return ExpandedCoeffs(
        rho=first.coeff(2),
        sigma=first.coeff(1),
        tau=first.coeff(0),
        abProduct=zero.coeff(1),
        qShift=-zero.coeff(0),
    )


# -- discrepancy bookkeeping --------------------------------------------------


class Discrepancy(_Record):
    """One audited formula: its published value, the oracle value, and the
    exact residual ``published - oracle``."""

    name: str
    paper: CRat
    oracle: CRat

    @property
    def residual(self) -> CRat:
        return self.paper - self.oracle

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "paper": str(self.paper),
            "oracle": str(self.oracle),
            "residual": str(self.residual),
        }


class DiscrepancyReport:
    """Ordered collection of :class:`Discrepancy` rows."""

    def __init__(self):
        self.rows = []

    def add(self, name: str, paper, oracle) -> None:
        self.rows.append(Discrepancy(name, CRat.from_value(paper), CRat.from_value(oracle)))

    def __iter__(self):
        return iter(self.rows)

    def residual(self, name: str) -> CRat:
        for row in self.rows:
            if row.name == name:
                return row.residual
        raise KeyError(name)

    def as_list(self) -> list[dict]:
        return [row.as_dict() for row in self.rows]


def _sorted_exponents(e1: Surd, e2: Surd) -> tuple[Surd, Surd]:
    """Put an exact-zero exponent first when present (for report stability)."""
    if e2 == Surd(0):
        return e2, e1
    return e1, e2


def _surd_to_crat(s: Surd) -> CRat:
    if s.is_exact():
        return s.exact_value()
    raise NotRegularSingular(f"exponent {s} is irrational; no rational comparison")


def _surd_product(e1: Surd, e2: Surd) -> CRat:
    """Exact product of a conjugate exponent pair; a live surd part is a bug."""
    prod = e1 * e2
    if not prod.is_exact():
        raise OracleMismatch(f"exponent product {prod} is not rational")
    return prod.exact_value()


# -- solvability ---------------------------------------------------------------


def es_condition(j, p: HeunParams) -> CRat:
    """Residual ``alpha + beta + 3j - 1/2``; zero is the vanishing-raising
    grading (under the parameter constraint)."""
    j = Spin(j).j
    return p.alpha + p.beta + CRat(3 * j) - CRat(Fraction(1, 2))


# -- polynomial-flag matrices ----------------------------------------------------


def qes_matrix(L: DiffOp, N: int) -> tuple[tuple[CRat, ...], ...]:
    """Matrix of ``L`` on the monomial basis 1, z, ..., z^N.

    ``M[r][c]`` is the coefficient of ``z^r`` in ``L(z^c)``, the band sums
    of :func:`monomial_images`.  Raises :class:`OverflowColumn` for the
    first column whose fully accumulated image has degree above N, because
    single terms may exceed N and cancel, as the raising terms at spin n/2
    do in column n.
    """
    N = exact_count(N, "N")
    # sparse columns until the last one passes: a refused N allocates no
    # dense (N+1)^2 matrix
    cols: list[dict[int, CRat]] = []
    for c, col in enumerate(monomial_images(L, N)):
        degree = max(col, default=-1)
        if degree > N:
            raise OverflowColumn(c, degree, N)
        cols.append(col)
    dense = [[CR_ZERO] * (N + 1) for _ in cols]
    for column, col in zip(dense, cols):
        for r, x in col.items():
            column[r] = x
    return tuple(zip(*dense))


def is_lower_triangular(M: Sequence[Sequence[CRat]]) -> bool:
    """True when every entry strictly above the diagonal is zero."""
    return all(
        M[r][c].is_zero() for r in range(len(M)) for c in range(r + 1, len(M))
    )


def is_upper_triangular(M: Sequence[Sequence[CRat]]) -> bool:
    """True when every entry strictly below the diagonal is zero."""
    return all(
        M[r][c].is_zero() for c in range(len(M)) for r in range(c + 1, len(M))
    )


def matrix_diagonal(M: Sequence[Sequence[CRat]]) -> list[CRat]:
    return [M[i][i] for i in range(len(M))]


def _float_eigenvalues(M: Sequence[Sequence[CRat]]) -> list[complex]:
    """The eigenvalues of ``M`` in floats, sorted.  An entry beyond the float
    range raises ``ValueError``, and an eigenvalue whose least residual on
    ``M`` over its largest entry modulus (at least 1) exceeds
    :data:`EIG_RESIDUAL_TOL` raises :class:`OracleMismatch`."""
    import numpy as np

    # convert only the exactly nonzero entries: a flag matrix at N = n is a
    # band.  Its zeros are the CR_ZERO singleton, and the identity test skips
    # them about 4x faster than CRat.__bool__ alone (2.2 -> 0.5 ms at n = 64)
    arr = np.zeros((len(M), len(M)), dtype=complex)
    for r, row in enumerate(M):
        for c, x in enumerate(row):
            if x is not CR_ZERO and x:
                try:
                    arr[r, c] = complex(x)
                except OverflowError:
                    msg = f"matrix entry ({r}, {c}) exceeds the float range"
                    raise ValueError(msg) from None
    vals, vecs = np.linalg.eig(arr)
    scale = max(1.0, float(np.abs(arr).max()))
    # column k of ``(arr @ vecs - vecs * vals) / scale`` is the residual of
    # eigenpair k over the scale, finite as arr is scaled first; NaN fails
    res = np.linalg.norm((arr / scale) @ vecs - vecs * (vals / scale), axis=0)
    res /= np.linalg.norm(vecs, axis=0)
    failing = np.flatnonzero(~(res <= EIG_RESIDUAL_TOL))
    if failing.size:
        # LAPACK's vector for one of two nearly equal eigenvalues can fail
        # while the value is good: the smallest singular value of
        # (arr - lambda I) / scale is lambda's least residual over all vectors
        shifted = arr / scale - (vals[failing] / scale)[:, None, None] * np.eye(len(arr))
        if np.isfinite(shifted).all():
            res[failing] = np.linalg.svd(shifted, compute_uv=False)[:, -1]
        failing = failing[~(res[failing] <= EIG_RESIDUAL_TOL)]
    if failing.size:
        raise OracleMismatch(f"eigenvalue residual {res[failing[0]] * scale:.3e} "
                             f"exceeds {EIG_RESIDUAL_TOL:.1e} * scale")
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def matrix_spectrum(M: Sequence[Sequence[CRat]]) -> tuple[bool, bool, list]:
    """``(lower, upper, spectrum)``: the two triangularity flags of ``M`` and
    its spectrum.

    Triangular matrices (either orientation) yield their diagonal exactly;
    anything else falls back to floating eigenvalues with a residual bound
    of :data:`EIG_RESIDUAL_TOL`.
    """
    lower = is_lower_triangular(M)
    upper = is_upper_triangular(M)
    if lower or upper:
        return lower, upper, matrix_diagonal(M)
    return lower, upper, _float_eigenvalues(M)


# -- one analysis per report -----------------------------------------------------


class Analysis:
    """The analysis of one ``(n, params)``: each stage is computed on first
    use and kept, so a report builds every object once.

    The stages are the expanded operator (the ``analyze`` report checks it
    once against the cleared canonical form), its indicial pairs at 0, 1, a
    and infinity, the generator coefficients, the one expansion of the
    nine-word Heun expression, the raising-free operator derived from it by
    subtracting the raising word ``cPlus * Jp``, and the raising-free flag
    matrix at ``N = n`` with its spectrum.  Readers that touch them in the
    order of the ``analyze`` report raise the same first exception as
    building each stage afresh would.  A context lives as long as the report
    that made it.
    """

    def __init__(self, n: int, p: HeunParams):
        self.n = exact_int(n, "n")
        self.p = p
        self.j = Spin.from_n(self.n).j

    @cached_property
    def expanded(self) -> DiffOp:
        return build_expanded(self.p)

    def check_canonical(self) -> None:
        """Raise :class:`OracleMismatch` unless the cleared canonical form
        equals the expanded operator; only the ``analyze`` report asks."""
        L = self.expanded
        if build_canonical_cleared(self.p) != L:
            raise OracleMismatch("cleared canonical form disagrees with the expanded form")

    @cached_property
    def exponents(self) -> dict[str, tuple[Surd, Surd]]:
        """Indicial pairs of the expanded operator, by point label."""
        L = self.expanded
        points = (("0", CR_ZERO), ("1", CR_ONE), ("a", self.p.a), ("inf", INFINITY))
        return {label: indicial_exponents(L, point) for label, point in points}

    @cached_property
    def uea_coeffs(self) -> UEACoeffs:
        return uea_heun_coeffs(self.j, self.p)

    @cached_property
    def heun_operator(self) -> DiffOp:
        return uea_expand(_uea_from_coeffs(self.uea_coeffs), self.j)

    @cached_property
    def heun_coeffs(self) -> ExpandedCoeffs:
        return extract_expanded_coeffs(self.heun_operator, self.p.a)

    @cached_property
    def es_operator(self) -> DiffOp:
        """The Heun expansion less its raising word ``cPlus * Jp``: built from
        the generator algebra, never from the published coefficient list."""
        jp = make_generators(self.j)[0]  # the generator uea_expand puts for "+"
        return self.heun_operator - jp * self.uea_coeffs.cPlus

    @cached_property
    def es_coeffs(self) -> ExpandedCoeffs:
        return extract_expanded_coeffs(self.es_operator, self.p.a)

    @cached_property
    def flag_matrix(self) -> tuple[tuple[CRat, ...], ...]:
        return qes_matrix(self.es_operator, self.n)

    @cached_property
    def spectrum(self) -> list:
        return matrix_spectrum(self.flag_matrix)[2]

    def theorem1_rows(self) -> DiscrepancyReport:
        """Audit the published coefficient formulas, the general-spin list
        and the reduced ``j = n/2`` list, against the expansion; a nonzero
        residual is a finding, not an error."""
        p, j = self.p, self.j
        n = CRat(self.n)
        one = CR_ONE
        got = self.heun_coeffs
        const = -got.qShift
        const_extra = const + p.q  # accessory shift produced by the expansion

        r = DiscrepancyReport()
        r.add("rho_general", p.gamma + p.delta + p.epsilon, got.rho)
        r.add("rho_constraint_form", p.alpha + p.beta + one, got.rho)
        r.add(
            "sigma_general",
            (CRat(2) * CRat(2 * j - 1) - p.gamma) * (p.a + one) - p.delta - p.epsilon,
            got.sigma,
        )
        r.add(
            "sigma_halfspin",
            (n - one - p.gamma) * (one + p.a) - p.delta - p.epsilon,
            got.sigma,
        )
        r.add("tau_general", p.a * (p.gamma - CRat(2 * j) + one), got.tau)
        r.add("tau_halfspin", p.a * (p.gamma - (n - one) / CRat(2)), got.tau)
        r.add(
            "ab_product_general",
            -CRat(2 * j) * (CRat(2 * j) + p.alpha + p.beta),
            got.abProduct,
        )
        r.add("ab_product_halfspin", n * (n - one) / CRat(2), got.abProduct)
        r.add(
            "q_general",
            CRat(j) * ((CRat(2 * (1 - j)) + p.gamma) * (one + p.a) - p.delta - p.epsilon),
            const_extra,
        )
        r.add(
            "q_halfspin_statement",
            -(n / CRat(2)) * (CRat(2) - n + p.gamma) * (one + p.a) - p.delta - p.epsilon,
            const_extra,
        )
        r.add(
            "q_halfspin_proof",
            -(n / CRat(2)) * ((n - p.gamma) * (one + p.a) - p.delta - p.epsilon),
            const_extra,
        )
        r.add("jplus_coefficient", es_condition(j, p), self.uea_coeffs.cPlus)
        r.add(
            "qes_membership_condition",
            CRat(8 * j * j) + CRat(2 * j) * (p.alpha + p.beta - one) + p.alpha * p.beta,
            p.alpha * p.beta - got.abProduct,
        )
        r.add(
            "eq3_linear_z_coeff",
            -((one + p.a) * p.gamma + p.delta + p.epsilon),
            self.expanded.coeff(1).coeff(1),  # the z-coefficient of D
        )
        return r

    def indicial_rows(self) -> DiscrepancyReport:
        """Audit the published exponent list against the Frobenius oracle on
        the expanded operator.  The published list pairs each finite singular
        point with the point itself as first exponent; the oracle has 0
        there.  No row depends on the spin."""
        p = self.p
        r = DiscrepancyReport()
        for label, printed_first, printed_second in (
            ("0", CR_ZERO, CR_ONE - p.gamma),
            ("1", CR_ONE, CR_ONE - p.delta),
            ("a", p.a, CR_ONE - p.epsilon),
        ):
            first, second = _sorted_exponents(*self.exponents[label])
            r.add(f"exponent_at_{label}_first", printed_first, _surd_to_crat(first))
            r.add(f"exponent_at_{label}_second", printed_second, _surd_to_crat(second))
        # published pair at infinity is {infinity, alpha*beta}; the product of the
        # oracle exponents is comparable, the point label is not
        prod = _surd_product(*self.exponents["inf"])
        r.add("exponent_at_inf_product", p.alpha * p.beta, prod)
        return r

    def es_rows(self) -> DiscrepancyReport:
        """Audit the reduced-spin coefficient list and both published
        eigenvalue formulas against the raising-free expansion and its flag
        matrix."""
        p, n = self.p, self.n
        one = CR_ONE
        ncr = CRat(n)
        got = self.es_coeffs
        r = DiscrepancyReport()
        r.add("es_rho", CRat(Fraction(3 * (1 - n), 2)), got.rho)
        r.add("es_sigma", (ncr - one - p.gamma) * (one + p.a) - p.delta - p.epsilon, got.sigma)
        r.add("es_tau", p.a * (p.gamma - (ncr - one) / CRat(2)), got.tau)
        r.add("es_ab_product", ncr * (ncr - one) / CRat(2), got.abProduct)
        diag0 = -got.qShift  # flag-matrix entry 00: L(1) at z^0
        e_statement = ncr * ((CRat(2) - ncr + p.gamma) * (p.a + one) + p.delta + p.epsilon) - p.q
        e_proof = ncr * ((ncr - p.gamma) * (p.a + one) - p.delta - p.epsilon) - p.q
        r.add("E_statement_vs_entry00", e_statement, diag0)
        r.add("E_proof_vs_entry00", e_proof, diag0)
        return r
