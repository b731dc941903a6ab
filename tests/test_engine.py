"""Binary-splitting digit engine and convergence measure."""

import contextlib
import decimal
import math
import random
import time
from decimal import Decimal
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
from arctanforge import engine
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
    cases = [(1, 2, 20), (3, 79, 50), (1, 239, 100), (17, 31, 3172), (-17, 31, 30010)]
    rng = random.Random(89)
    while len(cases) < 40:
        q = rng.randint(2, 10 ** rng.choice((1, 3, 70)))
        p = rng.randint(1, q - 1) * rng.choice((1, -1))
        # arguments near +-1 need thousands of terms and huge exact powers
        if math.log10(q) - math.log10(abs(p)) > 0.05:
            cases.append((p, q, rng.randint(1, 400)))
    for p, q, d in cases:
        n = _term_count(p, q, d)
        assert 10**d * abs(p) ** (2 * n + 1) < (2 * n + 1) * q ** (2 * n + 1)
        m = n - 1
        assert m == 0 or 10**d * abs(p) ** (2 * m + 1) >= (2 * m + 1) * q ** (2 * m + 1)
        with decimal.localcontext(engine.EXACT):
            assert _term_count(p, q, d, Decimal) == n


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
    for digits in (2.5, 20.0, True):
        with pytest.raises(InvalidArgumentError):
            pi_digits(EULER, digits)


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


@pytest.fixture(params=["int", "decimal"])
def leaf_type(request, monkeypatch):
    """Force every digit run onto one number type, whatever its size."""
    crossover = math.inf if request.param == "int" else 0
    monkeypatch.setattr(engine, "DECIMAL_DIGITS", crossover)
    return request.param


def test_feynman_point_one_tree_per_term(leaf_type, monkeypatch):
    # the 1000-fold terms need a wide guard at the Feynman point; each
    # arctangent is split once, at that guard, on the forced type, and the
    # run takes one enclosure
    calls, enclosures = [], []
    enclose = engine._enclosure_text

    def counted(p, q, digits):
        calls.append((type(p), digits))
        return atan_series_split(p, q, digits)

    def attempt(values, rprime, digits):
        enclosures.append(digits)
        return enclose(values, rprime, digits)

    monkeypatch.setattr(engine, "atan_series_split", counted)
    monkeypatch.setattr(engine, "_enclosure_text", attempt)
    euler = pi_digits(EULER, 761).digits
    calls.clear()
    enclosures.clear()
    wide = euler_plus_zero(1000, QUARTER_PAIRS[1], QUARTER_PAIRS[0])
    r = pi_digits(wide, 761)
    assert r.digits == euler and not r.unrounded
    assert enclosures == [761]
    kind = int if leaf_type == "int" else Decimal
    assert calls == [(kind, 761 + 90)] * len(wide.terms)


def test_never_proves_a_wrong_digit_on_both_leaf_types(leaf_type):
    rng = random.Random(113)
    euler = pi_digits(EULER, 800).digits
    for digits in rng.sample(range(700, 801), 30):
        plus, minus = rng.sample(QUARTER_PAIRS, 2)
        wide = euler_plus_zero(rng.randint(10**3, 10**4), plus, minus)
        r = pi_digits(wide, digits)
        assert r.unrounded or r.digits == euler[: digits + 2], (digits, wide)


def test_signs_and_reductions_on_both_leaf_types(leaf_type):
    euler = pi_digits(EULER, 200).digits
    # a negative right side, and every branch of the reduction
    negated = Identity([ArctanTerm(-t.coeff, t.arg) for t in MACHIN.terms], -MACHIN.rhs)
    assert pi_digits(negated, 200).digits == euler
    assert pi_digits(machin_pair(5, Fraction(2)), 200).digits == euler
    for f in (Fraction(2, 7), Fraction(-2, 7), Fraction(7, 2), Fraction(-7, 2)):
        assert pi_digits(diff_identity(f), 200).digits == euler, f
    with pytest.raises(InconsistentInputError):
        pi_digits(ident([(2, Fraction(1, 2)), (1, Fraction(1, 3))], Fraction(1, 4)), 20)


def test_decimal_series_within_a_unit_of_the_int_floor():
    # the truncated Decimal division may land one unit off the exact floor,
    # never more, on either sign and on 70-digit arguments
    rng = random.Random(97)
    for _ in range(30):
        q = rng.randint(2, 10 ** rng.choice((1, 3, 70)))
        p = rng.randint(1, q - 1) * rng.choice((1, -1))
        if math.log10(q) - math.log10(abs(p)) < 0.1:
            continue
        digits = rng.randint(1, 600 if q < 10**6 else 100)
        exact = atan_series_split(p, q, digits)
        d = atan_series_split(Decimal(p), Decimal(q), digits)
        assert isinstance(d, Decimal) and d == d.to_integral_value()
        assert abs(d - exact) <= 1, (p, q, digits)
    assert atan_series_split(Decimal(0), Decimal(5), 40) == 0
    # a single term past the leaf size is still converted
    for p, q in ((1, 10**700 + 1), (-(3**1500), 2**2400)):
        exact = atan_series_split(p, q, 50)
        assert abs(atan_series_split(Decimal(p), Decimal(q), 50) - exact) <= 1


def test_decimal_runs_in_an_exact_context(monkeypatch):
    # machin_pair(200, 3) carries a 70-digit argument near -0.9, so its
    # tree crosses over to Decimal at 300 digits without forcing
    euler = pi_digits(EULER, 300).digits
    contexts, kinds = [], set()
    real = engine.localcontext

    @contextlib.contextmanager
    def spied(ctx):
        with real(ctx) as c:
            yield c
            contexts.append(c)

    def typed(p, q, digits):
        kinds.add(type(p))
        return atan_series_split(p, q, digits)

    monkeypatch.setattr(engine, "localcontext", spied)
    monkeypatch.setattr(engine, "atan_series_split", typed)
    outer = decimal.getcontext()
    outer.clear_flags()
    r = pi_digits(machin_pair(200, Fraction(3)), 300)
    assert r.digits == euler and not r.unrounded
    assert kinds == {Decimal} and contexts
    for c in contexts:
        for signal in (decimal.Inexact, decimal.Rounded, decimal.InvalidOperation):
            assert c.traps[signal]
        assert c.prec == decimal.MAX_PREC
        assert not any(c.flags.values())
    assert decimal.getcontext() is outer and not any(outer.flags.values())
    with real(engine.EXACT), pytest.raises(decimal.Inexact):
        Decimal(5).scaleb(-1).to_integral_exact()


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
