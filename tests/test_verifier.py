"""Exact and interval verification, including the indeterminate band."""

import math
import random
from fractions import Fraction

import pytest

from arctanforge import (
    ArctanTerm,
    Identity,
    Surd,
    UnsupportedRhsError,
    golden_family,
    machin_pair,
    surd_normalize,
    verify_exact,
    verify_numeric,
)
from arctanforge.fixedpoint import FixedPointContext, pi_interval
from arctanforge.odot import NormalAngle
from arctanforge.verifier import _sci


def ident(terms, rhs):
    return Identity([ArctanTerm(c, a) for c, a in terms], Fraction(rhs))


NEWTON = ident([(2, Fraction(1, 2)), (1, Fraction(4, 7)), (1, Fraction(1, 8))], Fraction(1, 2))
EULER = ident([(5, Fraction(1, 7)), (2, Fraction(3, 79))], Fraction(1, 4))
MACHIN = ident([(4, Fraction(1, 5)), (-1, Fraction(1, 239))], Fraction(1, 4))
WRONG = ident([(2, Fraction(1, 2)), (1, Fraction(1, 3))], Fraction(1, 4))


def test_exact_classics_hold():
    for x in (NEWTON, EULER, MACHIN):
        v = verify_exact(x)
        assert v.holds
        assert v.actual.to_pi_multiple() == v.claimed_rhs
        assert v.numeric_residual is None and not v.indeterminate


def test_exact_wrong_identity_reports_actual():
    v = verify_exact(WRONG)
    assert not v.holds
    # 2*atan(1/2) + atan(1/3) lands on arctan(3), off the quarter lattice
    assert v.actual.to_pi_multiple() is None
    assert v.actual.same_angle(NormalAngle(Fraction(3), 0))
    assert v.claimed_rhs == Fraction(1, 4)


def test_exact_wrong_rhs_on_lattice():
    v = verify_exact(ident([(1, Fraction(1, 2)), (1, Fraction(1, 3))], Fraction(5, 4)))
    # the left side is a true quarter-turn, just not the claimed one
    assert not v.holds
    assert v.actual.to_pi_multiple() == Fraction(1, 4)


def test_exact_invariances():
    rng = random.Random(73)
    base = machin_pair(8, Fraction(3))
    for _ in range(20):
        terms = list(base.terms)
        rng.shuffle(terms)
        assert verify_exact(Identity(terms, base.rhs)).holds
    # splitting a coefficient into unit copies changes nothing
    split = ident(
        [(1, Fraction(1, 2)), (1, Fraction(1, 3)), (1, Fraction(1, 3)), (-1, Fraction(1, 3))],
        Fraction(1, 4),
    )
    assert verify_exact(split).holds
    # negating every term negates the angle
    neg = ident([(-1, Fraction(1, 2)), (-1, Fraction(1, 3))], Fraction(-1, 4))
    assert verify_exact(neg).holds


def test_exact_surd_families():
    for k in range(4):
        assert verify_exact(golden_family("odd", k)).holds
        assert verify_exact(golden_family("lucas_plus", k)).holds
    bad = ident([(2, surd_normalize(-1, 1, 5) / 2)], Fraction(1, 2))
    assert not verify_exact(bad).holds


def test_numeric_classics():
    for x in (NEWTON, EULER, MACHIN):
        v = verify_numeric(x, digits=50)
        assert v.holds and not v.indeterminate
        assert "+/-" in v.numeric_residual


def test_numeric_wrong_identity():
    v = verify_numeric(WRONG, digits=50)
    assert not v.holds and not v.indeterminate


def test_numeric_surd_identity():
    v = verify_numeric(golden_family("even", 1), digits=100)
    assert v.holds


def test_numeric_zero_angle():
    v = verify_numeric(ident([(1, Fraction(0))], Fraction(0)), digits=10)
    assert v.holds


def test_exact_unsupported_rhs():
    with pytest.raises(UnsupportedRhsError):
        verify_exact(ident([(1, Fraction(1, 2))], Fraction(1, 5)))


def test_numeric_accepts_off_lattice_rhs():
    # the numeric route exists precisely for right sides the exact fold
    # cannot name; arctan(1/2) != pi/5, and it should say so, not raise
    v = verify_numeric(ident([(1, Fraction(1, 2))], Fraction(1, 5)), digits=20)
    assert not v.holds and not v.indeterminate


def test_numeric_digit_floor():
    with pytest.raises(ValueError):
        verify_numeric(NEWTON, digits=9)
    assert verify_numeric(NEWTON, digits=10).holds


def test_numeric_indeterminate_band():
    # residual of 1e-8 at 30 digits: too big to hold, too small to condemn
    tiny = ident([(1, Fraction(1, 10**8))], Fraction(0))
    v = verify_numeric(tiny, digits=30)
    assert not v.holds and v.indeterminate
    # 1e-3 clears the noise floor: definite failure
    small = ident([(1, Fraction(1, 1000))], Fraction(0))
    v = verify_numeric(small, digits=30)
    assert not v.holds and not v.indeterminate


def test_exact_and_numeric_agree_on_grid():
    for x in range(2, 21, 3):
        for n in range(1, 21, 4):
            m = machin_pair(n, Fraction(x))
            assert verify_exact(m).holds
            assert verify_numeric(m, digits=20).holds


def test_pi_interval_tightness():
    ctx = FixedPointContext(60)
    lo, hi = pi_interval(60)
    assert 0 < hi - lo <= 10**4  # within four ulp-digits of the working precision
    mid = Fraction(lo + hi, 2 * ctx.scale)
    known = Fraction(
        314159265358979323846264338327950288419716939937510582097494, 10**59
    )
    assert abs(mid - known) < Fraction(1, 10**55)
    assert lo <= known * ctx.scale <= hi


def test_interval_atan_contains_truth():
    ctx = FixedPointContext(40)
    rng = random.Random(79)
    slack = Fraction(1, 10**12)  # float oracle is only good to ~1e-16 relative
    for _ in range(40):
        q = Fraction(rng.randint(-200, 200), rng.randint(1, 50))
        lo, hi = ctx.atan(ctx.from_fraction(q))
        truth = Fraction(math.atan(q))
        assert Fraction(lo, ctx.scale) <= truth + slack
        assert truth - slack <= Fraction(hi, ctx.scale)
        assert hi - lo <= 10**3


def test_interval_sqrt_and_surds():
    ctx = FixedPointContext(50)
    lo, hi = ctx.from_value(Surd(1, 2, 2))
    truth = Fraction(1) + 2 * Fraction(math.sqrt(2))
    slack = Fraction(1, 10**12)
    assert Fraction(lo, ctx.scale) <= truth + slack
    assert truth - slack <= Fraction(hi, ctx.scale)
    assert hi - lo <= 4


def test_sci_beyond_int_str_limit():
    # residuals of a false identity at 4400+ digits have that many digits
    assert _sci(7 * 10**4999 + 12345, 10) == "7.00000e+4989"
    assert _sci(-123456789 * 10**4991, 5000) == "-1.23456e-1"
