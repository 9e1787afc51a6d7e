"""Shared random-draw helpers for the test suite (all draws are seeded), and
the loop forms that the library's closed forms are checked against."""

import contextlib
import hashlib
import io
import math
import operator
import re
from fractions import Fraction

from heunlie import cli
from heunlie.algpoly import (
    CR_I,
    CR_ONE,
    CR_ZERO,
    NEG_INF,
    CRat,
    DegenerateLeading,
    DiffOp,
    HeunParams,
    OracleMismatch,
    OverflowColumn,
    Polynomial,
    op_apply,
    op_compose,
    quadratic_roots,
    weight_args,
)
from heunlie.distsol import _residual_ready
from heunlie.greenssf import symbol_coeffs
from heunlie.heunop import (
    EIG_RESIDUAL_TOL,
    INFINITY,
    NotRegularSingular,
    uea_heun_coeffs,
)
from heunlie.sl2rep import UEAExpr


def rand_fraction(rng, span=9, den=5, nonzero=False) -> Fraction:
    while True:
        f = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if f or not nonzero:
            return f


def rand_crat(rng, span=9, den=5, complex_ok=False) -> CRat:
    re = rand_fraction(rng, span, den)
    im = rand_fraction(rng, span, den) if complex_ok and rng.random() < 0.4 else Fraction(0)
    return CRat(re, im)


def rand_poly(rng, max_deg=4) -> Polynomial:
    deg = rng.randint(0, max_deg)
    return Polynomial([rand_crat(rng) for _ in range(deg + 1)])


def rand_op(rng, max_order=2, max_deg=2) -> DiffOp:
    order = rng.randint(0, max_order)
    return DiffOp([rand_poly(rng, max_deg) for _ in range(order + 1)])


def rand_params(rng, constrained=True) -> HeunParams:
    """Random rational parameter set; the constraint fixes epsilon when asked."""
    while True:
        a = rand_fraction(rng, nonzero=True)
        if a not in (0, 1):
            break
    q = rand_fraction(rng)
    alpha = rand_fraction(rng)
    beta = rand_fraction(rng)
    gamma = rand_fraction(rng)
    delta = rand_fraction(rng)
    if constrained:
        epsilon = alpha + beta + 1 - gamma - delta
    else:
        epsilon = rand_fraction(rng)
    return HeunParams(a=a, q=q, alpha=alpha, beta=beta, gamma=gamma,
                      delta=delta, epsilon=epsilon)


def es_params(n, a=Fraction(2), q=Fraction(1), gamma=Fraction(1, 3),
              delta=Fraction(1, 2)) -> HeunParams:
    """Parameters with zero raising-grade residual at spin n/2.

    alpha = -n and beta = (1-n)/2 make the raising condition and the
    parameter constraint hold simultaneously for any gamma, delta.
    """
    alpha = Fraction(-n)
    beta = Fraction(1 - n, 2)
    epsilon = alpha + beta + 1 - gamma - delta
    return HeunParams(a=a, q=q, alpha=alpha, beta=beta, gamma=gamma,
                      delta=delta, epsilon=epsilon)


def raising_free_expr(j, p) -> UEAExpr:
    """The raising-free combination at spin j written out word by word: the
    eight words of the Heun combination other than its raising word
    ``c_plus * +``, in the Heun combination's order."""
    c = uea_heun_coeffs(j, p)
    return UEAExpr(
        [
            (c.c_plus_zero, "+0"),
            (c.c_plus_zero, "0+"),
            (c.c_plus_minus, "+-"),
            (c.c_plus_minus, "-+"),
            (c.c_zero_minus, "0-"),
            (c.c_zero_minus, "-0"),
            (c.c_zero, "0"),
            (c.c_minus, "-"),
        ],
        c.c_const,
    )


def surds_match(pair, expected) -> bool:
    """Compare an exponent pair against expected values as an unordered pair."""
    e1, e2 = pair
    x1, x2 = expected
    return (e1 == x1 and e2 == x2) or (e1 == x2 and e2 == x1)


def _divided(poly, z0):
    """Quotient and remainder of ``poly`` by ``z - z0``, by synthetic division."""
    acc, out = CR_ZERO, []
    for c in reversed(poly.coeffs):
        acc = acc * z0 + c
        out.append(acc)
    rem = out.pop() if out else CR_ZERO
    return Polynomial(reversed(out)), rem


def _reduced_value(poly, z0, k):
    """Value at z0 of ``poly / (z - z0)^k``; refuses a nonzero remainder."""
    if poly.is_zero():
        return CR_ZERO
    for _ in range(k):
        poly, rem = _divided(poly, z0)
        if not rem.is_zero():
            raise NotRegularSingular(
                f"coefficient fails the regular-singularity order condition at {z0}"
            )
    return poly.eval(z0)


def reference_indicial_exponents(L, point):
    """Frobenius exponents by the operator transform: at infinity the whole
    operator is rebuilt under ``z -> 1/w`` with ``op_compose`` (each
    ``p_k(z) D_z^k`` becomes ``[w^d p_k(1/w)] (-w^2 D_w)^k``), and the order
    conditions at the point are checked by repeated synthetic division."""
    if L.order != 2:
        raise NotRegularSingular("indicial data implemented for second-order operators")
    if point is INFINITY:
        d = max(int(p.degree) for p in L.terms if not p.is_zero())
        neg_w2_d = op_compose(DiffOp.from_term(Polynomial.monomial(2) * -1), DiffOp.d())
        inverted, power = DiffOp.zero(), DiffOp.identity()
        for k, pk in enumerate(L.terms):
            if k:
                power = op_compose(power, neg_w2_d)
            if not pk.is_zero():
                reversed_pk = Polynomial(pk.coeff(d - i) for i in range(d + 1))
                inverted = inverted + op_compose(DiffOp.from_term(reversed_pk), power)
        L, z0 = inverted, CR_ZERO
    else:
        z0 = CRat.from_value(point)
    p2, p1, p0 = L.coeff(2), L.coeff(1), L.coeff(0)
    if p2.is_zero():
        raise NotRegularSingular("vanishing leading coefficient")
    s, rest = 0, p2
    while True:
        quotient, rem = _divided(rest, z0)
        if not rem.is_zero():
            break
        s, rest = s + 1, quotient
    if s < 1:
        raise NotRegularSingular(f"{z0} is an ordinary point (leading coefficient nonzero)")
    lead = _reduced_value(p2, z0, s)
    pc = _reduced_value(p1, z0, s - 1) / lead
    qc = _reduced_value(p0, z0, s - 2) / lead if s >= 2 else CR_ZERO
    return quadratic_roots(CR_ONE, pc - CR_ONE, qc)


def reference_qes_matrix(L, N):
    """Flag matrix built column by column: apply L to each monomial z^c."""
    cols = []
    for c in range(N + 1):
        img = op_apply(L, Polynomial.monomial(c))
        if img.degree is not NEG_INF and img.degree > N:
            raise OverflowColumn(c, int(img.degree), N)
        cols.append([img.coeff(r) for r in range(N + 1)])
    return tuple(tuple(cols[c][r] for c in range(N + 1)) for r in range(N + 1))


def reference_float_eigenvalues(M):
    """Float spectrum with every entry converted, zeros included, and each
    eigenvalue checked in its own loop step: its eigenpair residual, and
    where that fails, the smallest singular value of ``M - lambda I``."""
    import numpy as np

    arr = np.array([[complex(x) for x in row] for row in M], dtype=complex)
    vals, vecs = np.linalg.eig(arr)
    scale = max(1.0, float(np.abs(arr).max()))
    for k in range(len(vals)):
        v = vecs[:, k]
        res = np.linalg.norm(arr @ v - vals[k] * v) / np.linalg.norm(v)
        if res > EIG_RESIDUAL_TOL * scale:
            shifted = arr - vals[k] * np.eye(len(arr))
            res = np.linalg.svd(shifted, compute_uv=False)[-1]
        if res > EIG_RESIDUAL_TOL * scale:
            raise OracleMismatch(
                f"eigenvalue residual {res:.3e} exceeds {EIG_RESIDUAL_TOL:.1e} * scale"
            )
    return sorted((complex(v) for v in vals), key=lambda z: (z.real, z.imag))


def reference_kernel_sum(scalars, s_eval, p, with_factorial):
    """Kernel sum as printed: the (m, k, l) triple loop in lexicographic order."""
    rho, sigma, tau, _ = weight_args(scalars.rho, scalars.sigma, scalars.tau, scalars.a)
    total = CR_ZERO
    for m in range(1, p + 1):
        eps0 = symbol_coeffs(m, scalars.n, scalars).eps0.eval(s_eval)
        sign = CRat(-1 if (m - 1) % 2 else 1)
        fact = CRat(math.factorial(m - 1)) if with_factorial else CR_ONE
        for k in range(sigma):
            for l in range(tau):
                h = CRat(math.comb(sigma - 1, k) * math.comb(tau - 1, l))
                total = total + h * scalars.a ** (-l) * sign * eps0 * fact
    return total


def reference_truncated_exponential(p):
    """Prefactor coefficients ``i^(m-1) / (m-1)!``, each power and factorial
    built afresh."""
    return Polynomial([CR_I ** (m - 1) / CRat(math.factorial(m - 1)) for m in range(1, p + 1)])


# -- the CRat reference for the kernel data -----------------------------------
# _kernel_sums and _truncated_exponential as they ran when every kernel
# operation was a CRat operation: the binomial factor as CRat powers of
# 1 + a and a, the sums closed in CRat, and the prefactor as a table of
# CRat values times the scalar 1/(p-1)!.


def crat_kernel_sums(exponents, a, s_eval, p):
    """The ``(m-1)!``-weighted kernel sum and ``K_p``, in one pass over ``m``."""
    rho, sigma, tau = exponents
    one_a = CR_ONE + a
    # 2^(sigma-1) (1 + 1/a)^(tau-1), written to divide by a only when tau > 1
    binomials = CRat(2 ** (sigma - 1)) * one_a ** (tau - 1) * a ** (1 - tau)
    s0 = s1 = s2 = t0 = t1 = t2 = 0
    w = v = 1
    for m in range(1, p + 1):
        c1, c2 = m - 1, (m - 1) * (m - 2)
        s0, s1, s2 = s0 + w, s1 + w * c1, s2 + w * c2
        t0, t1, t2 = t0 + v, t1 + v * c1, t2 + v * c2
        w, v = -w * m, -v

    def total(s0, s1, s2):
        constant = one_a * s2 + (rho * s1 + tau * (s1 + 2 * s0))
        linear = CR_I * (sigma * s0 - one_a * (2 * s1))
        return binomials * (linear * s_eval + constant)

    return total(s0, s1, s2), total(t0, t1, t2)


def crat_truncated_exponential(p):
    """``sum_{m=1}^{p} (i w)^(m-1) / (m-1)!`` as the CRat table
    ``i^k (p-1)!/k!`` times the scalar ``1/(p-1)!``."""
    top = math.factorial(p - 1)
    table, term = [], top  # term = (p-1)!/k!
    for k in range(p):
        re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]  # i^k
        table.append(CRat(re * term, im * term))
        term //= k + 1
    return Polynomial(table) * CRat.from_ints(1, 0, top)


def _parts(x) -> tuple[Fraction, Fraction]:
    if isinstance(x, CRat):
        return x.re, x.im
    if isinstance(x, tuple):  # already an (re, im) pair
        return x
    return Fraction(x), Fraction(0)


def _textbook_mul(a, b, c, d):
    return a * c - b * d, a * d + b * c


def _textbook_div(a, b, c, d):
    den = c * c + d * d
    return (a * c + b * d) / den, (b * c - a * d) / den


def reference_crat_op(x, y, op) -> tuple[Fraction, Fraction]:
    """``x op y`` on (re, im) pairs by the textbook formulas: four products
    per product and the squared modulus in every division, whatever parts
    are zero.  ``x`` and ``y`` are exact scalars or (re, im) pairs of
    Fractions.  ``op`` is one of ``operator.add/sub/mul/truediv/pow``; for
    ``pow`` the exponent ``y`` is an int and the power is repeated products."""
    a, b = _parts(x)
    if op is operator.pow:
        re, im = Fraction(1), Fraction(0)
        for _ in range(abs(y)):
            re, im = _textbook_mul(re, im, a, b)
        return _textbook_div(Fraction(1), Fraction(0), re, im) if y < 0 else (re, im)
    c, d = _parts(y)
    if op is operator.add:
        return a + c, b + d
    if op is operator.sub:
        return a - c, b - d
    if op is operator.mul:
        return _textbook_mul(a, b, c, d)
    return _textbook_div(a, b, c, d)


def falling_factorial(k, m):
    """``(k)_m = k (k-1) ... (k-m+1)`` as a plain product, for ``m >= 0``."""
    return math.prod(range(k, k - m, -1))


def reference_reassembled(w):
    """A weight table summed back as ``sum h[m][n] z^(m+n+rho-1)``."""
    out = Polynomial.zero()
    for m, row in enumerate(w.h):
        for n, c in enumerate(row):
            out = out + Polynomial.monomial(m + n + w.rho - 1) * c
    return out


def reference_real_brackets(spec, k):
    """Real-branch (A, B, C), each falling factorial built as a ``CRat``."""
    l = spec.l
    A = CRat(falling_factorial(k + 2, l + 2)) - spec.a * CRat(falling_factorial(k + 2, l))
    B = spec.rho * CRat(falling_factorial(k + 1, l + 1)) - spec.tau * CRat(
        falling_factorial(k + 1, l - 1)
    )
    C = spec.ab * CRat(falling_factorial(k, l))
    return A, B, C


def reference_imag_brackets(spec, k):
    """Imaginary-branch (A, B, C), each falling factorial built as a ``CRat``."""
    l = spec.l
    A = (CR_ONE + spec.a) * CRat(falling_factorial(k + 2, l + 1)) - spec.a * CRat(
        falling_factorial(k + 2, l)
    )
    B = CRat(falling_factorial(k + 1, l)) * spec.sigma
    C = spec.E * CRat(falling_factorial(k, l - 1))
    return A, B, C


def reference_forward(spec, c0, c1, K, which):
    """Forward solve with the brackets rebuilt at every step."""
    if which == "real":
        start, brackets = max(2, spec.l), reference_real_brackets
    else:
        start, brackets = max(2, spec.l - 1), reference_imag_brackets
    vals = [CRat.from_value(c0), CRat.from_value(c1)]
    for k in range(2, K + 1):
        if k < start:
            vals.append(CR_ZERO)
            continue
        A, B, C = brackets(spec, k)
        if C.is_zero():
            raise DegenerateLeading(f"zero leading bracket at k={k}")
        x, y = vals[k - 2], vals[k - 1]
        vals.append((B * y - A * x) / C if which == "real" else (A * x - B * y) / C)
    return vals


def reference_residuals(c, spec, which):
    """Residual table with the brackets rebuilt and every entry converted at
    each index, and the signs applied by multiplication."""
    if which == "real":
        start, brackets, signs = max(2, spec.l), reference_real_brackets, (1, -1, 1)
    else:
        start, brackets, signs = max(2, spec.l - 1), reference_imag_brackets, (-1, 1, 1)
    out = []
    for k in range(start, len(c)):
        A, B, C = brackets(spec, k)
        vals = [_residual_ready(c[k - 2]), _residual_ready(c[k - 1]), _residual_ready(c[k])]
        if all(isinstance(v, CRat) for v in vals):
            res = signs[0] * A * vals[0] + signs[1] * B * vals[1] + signs[2] * C * vals[2]
        else:
            res = (
                signs[0] * complex(A) * complex(vals[0])
                + signs[1] * complex(B) * complex(vals[1])
                + signs[2] * complex(C) * complex(vals[2])
            )
        out.append((k, res))
    return out


# -- the CRat-list reference for Polynomial and DiffOp ---------------------------
# A polynomial is a tuple of CRat coefficients, low degree first, trailing zeros
# trimmed, and an operator a tuple of such tuples, index = derivative order.
# The algorithms are the ones Polynomial, DiffOp and the kernels over them ran
# when a polynomial held one CRat per coefficient: every coefficient operation
# is a CRat operation.


def _trimmed(items) -> tuple:
    out = list(items)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def list_poly(cs) -> tuple:
    """The reference form of a coefficient list: CRat values, trailing zeros
    trimmed."""
    return _trimmed(CRat.from_value(c) for c in cs)


def list_op(polys) -> tuple:
    """The reference form of an operator's coefficient lists."""
    return _trimmed(list_poly(cs) for cs in polys)


def _at(p, k):
    return p[k] if 0 <= k < len(p) else CR_ZERO


def list_add(p, q) -> tuple:
    return _trimmed(_at(p, k) + _at(q, k) for k in range(max(len(p), len(q))))


def list_sub(p, q) -> tuple:
    return _trimmed(_at(p, k) - _at(q, k) for k in range(max(len(p), len(q))))


def list_mul(p, q) -> tuple:
    if not (p and q):
        return ()
    out = [CR_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _trimmed(out)


def list_scale(p, c) -> tuple:
    c = CRat.from_value(c)
    return _trimmed(x * c for x in p)


def list_derivative(p, order=1) -> tuple:
    return _trimmed(c * math.perm(k, order) for k, c in enumerate(p[order:], order))


def list_eval(p, x):
    """Horner: exact at an exact ``x``, a complex at a float or complex one."""
    if isinstance(x, (float, complex)):
        z = 0j
        for c in reversed(p):
            z = z * x + complex(c)
        return z
    acc = CR_ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def list_op_apply(L, f) -> tuple:
    out, df = (), f
    for k, p in enumerate(L):
        if k:
            df = list_derivative(df)
        if p:
            out = list_add(out, list_mul(p, df))
    return out


def list_op_compose(L, M) -> tuple:
    """Leibniz: ``D^k (q g) = sum_i C(k, i) q^(i) D^(k-i) g``, piece by piece."""
    acc = {}
    for k, p in enumerate(L):
        if not p:
            continue
        for m, q in enumerate(M):
            if not q:
                continue
            dq = q
            for i in range(k + 1):
                if i:
                    dq = list_derivative(dq)
                    if not dq:
                        break
                piece = list_scale(list_mul(p, dq), math.comb(k, i))
                acc[k + m - i] = list_add(acc.get(k + m - i, ()), piece)
    return _trimmed(acc.get(k, ()) for k in range(max(acc, default=-1) + 1))


def list_commutator(L, M) -> tuple:
    LM, ML = list_op_compose(L, M), list_op_compose(M, L)
    return _trimmed(list_sub(*(X[k] if k < len(X) else () for X in (LM, ML)))
                    for k in range(max(len(LM), len(ML))))


def list_qes_matrix(L, N):
    """The band formula ``M[r][c] = sum_k p_k[r - c + k] c!/(c-k)!`` summed
    entry by entry in CRat, column by column; the first column whose image
    has degree above N raises OverflowColumn."""
    cols = []
    for c in range(N + 1):
        col = {}
        for k, p in enumerate(L[: c + 1]):
            falling = math.perm(c, k)
            for i, x in enumerate(p):
                if x:
                    col[i + c - k] = col.get(i + c - k, CR_ZERO) + x * falling
        degree = max((r for r, x in col.items() if x), default=-1)
        if degree > N:
            raise OverflowColumn(c, degree, N)
        cols.append([col.get(r, CR_ZERO) for r in range(N + 1)])
    return tuple(tuple(col[r] for col in cols) for r in range(N + 1))


def _shifted(p, s) -> tuple:
    """``p`` times ``w^s``."""
    return (CR_ZERO,) * s + p if p else ()


def list_indicial_exponents(L, point):
    """Frobenius exponents from the local coefficient lists: at a finite
    ``z0`` the lists ``p_k(z0 + t)`` by Horner on lists, at infinity the
    reversed lists combined as ``w^4 r_2``, ``2 w^3 r_2 - w^2 r_1``, ``r_0``."""
    if len(L) != 3:
        raise NotRegularSingular("indicial data implemented for second-order operators")
    p0, p1, p2 = L
    if point is INFINITY:
        d = max(len(p) for p in L) - 1
        r2, r1, r0 = (_trimmed(_at(p, d - i) for i in range(d + 1)) for p in (p2, p1, p0))
        local = (_shifted(r2, 4), list_sub(_shifted(list_scale(r2, 2), 3), _shifted(r1, 2)), r0)
        z0 = CR_ZERO
    else:
        z0 = CRat.from_value(point)
        local = []
        for p in (p2, p1, p0):
            acc = []
            for c in reversed(p):  # acc <- acc (t + z0) + c
                acc = [x + z0 * y for x, y in zip([c, *acc], [*acc, CR_ZERO])]
            local.append(_trimmed(acc))
    t2, t1, t0 = local
    if not t2:
        raise NotRegularSingular("vanishing leading coefficient")
    s = next(i for i, c in enumerate(t2) if c)
    if s < 1:
        raise NotRegularSingular(f"{z0} is an ordinary point (leading coefficient nonzero)")
    if any(c for c in (*t1[: s - 1], *t0[: max(s - 2, 0)])):
        raise NotRegularSingular(f"coefficient fails the regular-singularity order condition at {z0}")
    pc = _at(t1, s - 1) / t2[s]
    qc = _at(t0, s - 2) / t2[s] if s >= 2 else CR_ZERO
    return quadratic_roots(CR_ONE, pc - CR_ONE, qc)


def reference_parse(argv):
    """The command line parsed by the full parser alone, never read from the
    flag table directly: the top parser walks the whole line, then the
    command's parser walks the rest of it."""
    return cli.build_parser().parse_args(argv)


VERSION_FIELD = re.compile(r'"version": "[^"]*",\s*|^version: .*\n', re.M)


def run_case(argv) -> dict:
    """Exit code and SHA-256 digests of one ``cli.main`` call's standard
    output (without the commit-dependent ``version`` field) and error; the
    exit code of argparse's help and usage errors is its ``SystemExit``'s."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {
        "exit": code,
        "stdout": hashlib.sha256(VERSION_FIELD.sub("", out.getvalue()).encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }
