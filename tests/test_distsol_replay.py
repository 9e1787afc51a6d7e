"""The text of a forward solve, replayed in ``decimal`` from each step's
small integers, is the text ``str`` gives, and a wrong replay is caught.

``CoeffSequence.as_list`` prints a large real value from the two values
before it and the step integers the forward solve recorded; every replayed
numerator and denominator is checked against its int by a residue modulo a
61-bit prime (the tripwire, exit 3 from ``main``).
"""

import contextlib
import decimal
import hashlib
import io
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heunlie import cli, distsol
from heunlie.algpoly import CRat, OracleMismatch
from heunlie.distsol import CoeffSequence, RecurrenceSpec, forward_imag, forward_real

_PARAMS = [f"--{k}={v}" for k, v in zip(
    ("a", "q", "alpha", "beta", "gamma", "delta", "epsilon"),
    (3, "1/2", "-2/3", "5/4", "1/3", "-1/2", "7/5"),
)]
# real parameters; its longest integer has about 1 700 digits
REPLAYED = ["distsol", "--n=8", "--l=2", "--K=300", "--E=3/2", "--c1=2/3", *_PARAMS]

part_st = st.sampled_from([Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3, 4)])
nonzero_st = part_st.filter(bool)


def complex_st(part):
    return st.builds(CRat, part, st.one_of(st.just(0), part))


def _main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@given(
    forward=st.sampled_from([forward_real, forward_imag]),
    l=st.integers(1, 4),
    K=st.integers(1, 80),
    complex_scalars=st.booleans(),
    c=st.tuples(complex_st(part_st), complex_st(part_st)),
    real_c=st.tuples(part_st, part_st),
    data=st.data(),
    replay_bits=st.sampled_from([0, 64, 300, distsol._REPLAY_BITS]),
)
@settings(max_examples=150, deadline=None)
def test_replayed_text_is_the_str_text(forward, l, K, complex_scalars, c, real_c, data,
                                       replay_bits):
    if complex_scalars:  # complex a, ab or E: the str path only
        scalars = [data.draw(complex_st(nonzero_st)) for _ in range(6)]
        c0, c1 = c
    else:
        scalars = [CRat(data.draw(nonzero_st)) for _ in range(6)]
        c0, c1 = map(CRat, real_c)
    rho, sigma, tau, ab, E, a = scalars
    spec = RecurrenceSpec(l=l, rho=rho, sigma=sigma, tau=tau, ab=ab, E=E, a=a)
    seq = forward(spec, c0, c1, K)
    if not complex_scalars:
        # every nonzero solved value of a real solve is recorded
        start = max(2, l - (forward is forward_imag))
        assert [k for k, s in enumerate(seq.steps) if s] == [
            k for k in range(start, K + 1) if seq[k]]
    with mock.patch.object(distsol, "_REPLAY_BITS", replay_bits):
        assert seq.as_list() == [str(v) for v in seq.values]
    plain = CoeffSequence(seq.values)
    assert seq == plain and hash(seq) == hash(plain) and repr(seq) == repr(plain)


def _corrupted(monkeypatch, change):
    """Let every forward solve replace its last recorded step by ``change(step)``."""
    solve = distsol._forward

    def forward(*args):
        seq = solve(*args)
        steps = list(seq.steps)
        k = max(k for k, s in enumerate(steps) if s)
        steps[k] = change(steps[k])
        return CoeffSequence(seq.values, tuple(steps))

    monkeypatch.setattr(distsol, "_forward", forward)


P = distsol._P
# around the fold lengths 61t, where the low part is all ones or the high part is 1
fold_edge_st = st.builds(lambda t, d, sign: sign * ((1 << 61 * t) + d),
                         st.integers(1, 800), st.integers(-1, 1), st.sampled_from([1, -1]))


@given(st.one_of(
    st.integers(-(1 << 60_000), 1 << 60_000),
    st.integers(-(1 << 3000), 1 << 3000).map(lambda i: i * P),
    fold_edge_st,
))
@example(0)
@example(-1)
@example(P)
@example(-P * (1 << 5000))
@example((1 << 61 * 200) - 1)
@example(-(1 << 61 * 200) - 1)
@settings(max_examples=300, deadline=None)
def test_residue_folds_give_the_remainder(i):
    assert distsol._residue(i) == i % P


def test_a_wrong_step_trips_the_oracle_and_writes_nothing(monkeypatch):
    assert _main(REPLAYED)[0] == 0
    # N_k becomes (1 + G) N_k, which still divides exactly by G
    _corrupted(monkeypatch, lambda s: (s[0] * (1 + s[3]), s[1] * (1 + s[3]), *s[2:]))
    code, out, err = _main(REPLAYED)
    assert code == 3
    assert out == ""
    assert err.startswith("heunlie: internal oracle mismatch: ")
    assert "disagrees with its value" in err


def test_a_step_that_does_not_divide_raises_and_never_rounds(monkeypatch):
    # c_2 = (c_0 + c_1) / G over D_2 = D_1 / G, with c_0 = 1 and c_1 = 2
    values = (CRat(1), CRat(2), CRat(3))
    step = (1, 1, 1)
    monkeypatch.setattr(distsol, "_REPLAY_BITS", 0)
    assert distsol._replayed_text(values, (None, None, (*step, 1))) == ["1", "2", "3"]
    with pytest.raises(OracleMismatch, match="does not divide exactly by 2"):
        distsol._replayed_text(values, (None, None, (*step, 2)))
    # the replay's context: any result that would be rounded raises instead
    ctx = distsol._EXACT.copy()
    assert ctx.prec == decimal.MAX_PREC
    ctx.prec = 4
    with pytest.raises((decimal.Inexact, decimal.Rounded)), decimal.localcontext(ctx):
        decimal.Decimal(12345) * 1
    monkeypatch.undo()
    _corrupted(monkeypatch, lambda s: (*s[:3], s[3] * (2 ** 89 - 1)))
    code, out, err = _main(REPLAYED)
    assert (code, out) == (3, "")
    assert "does not divide exactly" in err


def test_past_the_digit_limit_with_the_limit_lifted_matches_str(monkeypatch):
    # the real-parameter K = 1024 report of ROADMAP item 1: 11.3 MB, integers
    # of up to about 7 400 digits
    argv = ["distsol", "--n=8", "--l=2", "--K=1024", "--E=3/2", "--c1=2/3", *_PARAMS]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, replayed, _ = _main(argv)
        solve = distsol._forward
        monkeypatch.setattr(distsol, "_forward", lambda *a: CoeffSequence(solve(*a).values))
        plain_code, plain, _ = _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == plain_code == 0
    assert len(replayed) > 10_000_000
    assert hashlib.sha256(replayed.encode()).digest() == hashlib.sha256(plain.encode()).digest()


@given(
    forward=st.sampled_from([forward_real, forward_imag]),
    l=st.integers(1, 4),
    scalars=st.lists(nonzero_st, min_size=6, max_size=6),
    c=st.tuples(part_st, part_st),
)
@settings(max_examples=80, deadline=None)
def test_each_record_rebuilds_its_value(forward, l, scalars, c):
    rho, sigma, tau, ab, E, a = scalars
    spec = RecurrenceSpec(l=l, rho=rho, sigma=sigma, tau=tau, ab=ab, E=E, a=a)
    seq = forward(spec, *c, 40)
    for k, step in enumerate(seq.steps):
        if step is None:
            continue
        u, v, m, G = step
        (n2, _, d2), (n1, _, d1), (n, _, d) = (seq[j].triple for j in (k - 2, k - 1, k))
        assert G >= 1 and m >= 1
        assert n * G == u * n2 + v * n1
        assert d * G == m * d1


def test_a_zero_value_inside_a_solve_replays(monkeypatch):
    # c_0 = B_2 and c_1 = A_2 make c_2 = (B_2 c_1 - A_2 c_0) / C_2 vanish, so
    # the next two steps have a zero operand
    spec = RecurrenceSpec(l=1, rho=Fraction(3, 7), tau=Fraction(-5, 4), ab=Fraction(2, 9),
                               a=Fraction(11, 3))
    A, B, _ = distsol._crat_brackets(spec, "real", 2)
    seq = forward_real(spec, B, A, 60)
    assert seq[2] == 0 and all(seq[k] for k in range(3, 61))
    assert all(seq.steps[k] for k in range(3, 61))
    monkeypatch.setattr(distsol, "_REPLAY_BITS", 0)
    assert seq.as_list() == [str(v) for v in seq.values]
