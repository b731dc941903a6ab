"""Binary-splitting digit engine and convergence measure."""

import math
import random
import time
from fractions import Fraction

import pytest

from arctanforge import (
    ArctanTerm,
    DegenerateArgumentError,
    DegenerateIdentityError,
    DigitResult,
    Identity,
    InconsistentInputError,
    InvalidArgumentError,
    RationalOnlyError,
    ReductionRequiredError,
    diff_identity,
    golden_family,
    lehmer_measure,
    machin_pair,
    pi_digits,
)
from arctanforge.engine import _term_count, atan_series_split


def ident(terms, rhs):
    return Identity([ArctanTerm(c, a) for c, a in terms], Fraction(rhs))


EULER = ident([(5, Fraction(1, 7)), (2, Fraction(3, 79))], Fraction(1, 4))
MACHIN = ident([(4, Fraction(1, 5)), (-1, Fraction(1, 239))], Fraction(1, 4))
# each pair of arctangents sums to pi/4
QUARTER_PAIRS = [
    (Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1, 4), Fraction(3, 5)),
    (Fraction(1, 5), Fraction(2, 3)),
    (Fraction(1, 7), Fraction(3, 4)),
]


def euler_plus_zero(c, plus, minus):
    """Euler's identity plus c times two quarter pairs that cancel."""
    terms = [(t.coeff, t.arg) for t in EULER.terms]
    terms += [(c, a) for a in plus] + [(-c, a) for a in minus]
    return ident(terms, EULER.rhs)


def test_atan_series_known_values():
    assert atan_series_split(1, 2, 30) == 463647609000806116214256231461
    assert atan_series_split(3, 79, 30) == 37956445188314347775701380153
    assert atan_series_split(0, 5, 40) == 0
    assert atan_series_split(-1, 2, 30) == -463647609000806116214256231462


def test_atan_series_normalization():
    # sign of q and common factors are absorbed, not errors
    assert atan_series_split(1, -2, 20) == atan_series_split(-1, 2, 20)
    assert atan_series_split(7, 14, 20) == atan_series_split(1, 2, 20)
    with pytest.raises(ZeroDivisionError):
        atan_series_split(1, 0, 10)


def test_atan_series_rejects_large_arguments():
    for p, q in [(1, 1), (3, 2), (-5, 5), (79, 3), (10**5000, 3)]:
        with pytest.raises(ReductionRequiredError):
            atan_series_split(p, q, 20)


def test_split_equals_naive_partial_sum():
    # the tree must produce the floor of the exact partial sum with the
    # same term count, bit for bit
    rng = random.Random(83)
    for _ in range(20):
        q = rng.randint(2, 60)
        p = rng.randint(1, q - 1) * rng.choice((1, -1))
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if abs(p) == q:
            continue
        digits = rng.randint(5, 40)
        n = _term_count(p, q, digits + 10)
        exact = sum(
            Fraction((-1) ** j * p ** (2 * j + 1), (2 * j + 1) * q ** (2 * j + 1))
            for j in range(n)
        )
        expect = exact * 10**digits
        expect = expect.numerator // expect.denominator
        assert atan_series_split(p, q, digits) == expect, (p, q, digits)


def test_term_count_is_minimal():
    for p, q, d in [(1, 2, 20), (3, 79, 50), (1, 239, 100)]:
        n = _term_count(p, q, d)
        assert 10**d * abs(p) ** (2 * n + 1) < (2 * n + 1) * q ** (2 * n + 1)
        m = n - 1
        assert 10**d * abs(p) ** (2 * m + 1) >= (2 * m + 1) * q ** (2 * m + 1)


def test_pi_digits_small():
    r = pi_digits(EULER, 1)
    assert r.digits == "3.1"
    r = pi_digits(EULER, 10)
    # truncated, not rounded: the 11th decimal is 8
    assert r.digits == "3.1415926535"
    assert r.source is EULER
    assert r.elapsed >= 0.0
    assert not r.unrounded
    assert isinstance(r, DigitResult)


def test_pi_digits_identities_agree():
    a = pi_digits(EULER, 120).digits
    b = pi_digits(machin_pair(2, Fraction(7)), 120).digits
    c = pi_digits(machin_pair(5, Fraction(2)), 120).digits
    assert a == b == c


def test_pi_digits_internal_reduction():
    # machin_pair(5, 2) carries atan(-79/3); the engine must fold the
    # big argument through a half-turn, not refuse it
    ident5 = machin_pair(5, Fraction(2))
    assert abs(ident5.terms[1].arg) > 1
    assert pi_digits(ident5, 30).digits == "3.141592653589793238462643383279"
    # atan(f) - atan((f-1)/(f+1)) takes f and g through every branch of the
    # reduction: 0 < f < 1 (-1 < g < 0), -1 < f < 0 (g < -1), f > 1
    # (0 < g < 1) and f < -1 (g > 1)
    rng = random.Random(109)
    euler = pi_digits(EULER, 200).digits
    for _ in range(3):
        q = rng.randint(3, 20)
        p = rng.randint(1, q - 1)
        for f in (Fraction(p, q), Fraction(-p, q), Fraction(q, p), Fraction(-q, p)):
            assert pi_digits(diff_identity(f), 200).digits == euler, f


def test_pi_digits_term_order_irrelevant():
    flipped = Identity(tuple(reversed(EULER.terms)), EULER.rhs)
    assert pi_digits(flipped, 200).digits == pi_digits(EULER, 200).digits


def test_pi_digits_rejects_surds():
    with pytest.raises(RationalOnlyError):
        pi_digits(golden_family("odd", 0), 20)


def test_pi_digits_rejects_wrong_identity():
    wrong = ident([(2, Fraction(1, 2)), (1, Fraction(1, 3))], Fraction(1, 4))
    with pytest.raises(InconsistentInputError):
        pi_digits(wrong, 20)


def test_pi_digits_degenerate_identities():
    with pytest.raises(DegenerateIdentityError):
        pi_digits(ident([(1, Fraction(0))], Fraction(0)), 20)
    # atan(1) = pi/4 is true but evaporates during half-turn elimination
    with pytest.raises(DegenerateIdentityError):
        pi_digits(ident([(1, Fraction(1))], Fraction(1, 4)), 20)
    # atan(1) - atan(0) and atan(0) - atan(-1): arctan(+-1) and arctan(0)
    # leave no series behind
    for f in (Fraction(1), Fraction(0)):
        with pytest.raises(DegenerateIdentityError):
            pi_digits(diff_identity(f), 20)
    with pytest.raises(InvalidArgumentError):
        pi_digits(EULER, 0)


def test_pi_digits_proved_through_feynman_point():
    # 761 decimals stop just before the six nines of the Feynman point, and
    # the 1000-fold terms put the run thousands of units off pi: the last
    # digit must come from the enclosure, not from the look of the guard
    wide = euler_plus_zero(1000, QUARTER_PAIRS[1], QUARTER_PAIRS[0])
    r = pi_digits(wide, 761)
    assert r.digits == pi_digits(EULER, 761).digits
    assert not r.unrounded


def test_pi_digits_never_proves_a_wrong_digit():
    rng = random.Random(107)
    euler = pi_digits(EULER, 800).digits
    for digits in range(700, 801):
        plus, minus = rng.sample(QUARTER_PAIRS, 2)
        wide = euler_plus_zero(rng.randint(10**3, 10**4), plus, minus)
        r = pi_digits(wide, digits)
        assert r.unrounded or r.digits == euler[: digits + 2], (digits, wide)


def test_pi_digits_ten_thousand():
    start = time.perf_counter()
    a = pi_digits(MACHIN, 10_000)
    b = pi_digits(EULER, 10_000)
    assert time.perf_counter() - start < 5.0
    assert len(a.digits) == 10_002
    assert a.digits == b.digits
    assert not a.unrounded and not b.unrounded


def test_lehmer_measure_values():
    assert lehmer_measure(EULER) == pytest.approx(1.8872692426749564, abs=1e-12)
    assert lehmer_measure(machin_pair(2, Fraction(7))) == pytest.approx(
        5.015993194561654, abs=1e-12
    )
    assert lehmer_measure(ident([(1, Fraction(1, 10))], Fraction(1))) == 1.0


def test_lehmer_measure_reciprocal_and_coefficients():
    a = ident([(1, Fraction(1, 5))], Fraction(1))
    b = ident([(7, Fraction(5))], Fraction(1))
    assert lehmer_measure(a) == lehmer_measure(b)


def test_lehmer_measure_edge_cases():
    assert lehmer_measure(ident([(1, Fraction(1)), (1, Fraction(1, 2))], Fraction(1))) == math.inf
    with pytest.raises(DegenerateArgumentError):
        lehmer_measure(ident([(1, Fraction(0))], Fraction(1)))
    with pytest.raises(RationalOnlyError):
        lehmer_measure(golden_family("odd", 1))


def test_lehmer_measure_big_integers():
    # huge exact arguments must not overflow the log
    big = ident([(1, Fraction(1, 10**400))], Fraction(1))
    assert lehmer_measure(big) == pytest.approx(1 / 400, abs=1e-15)
