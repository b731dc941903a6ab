"""Exact and interval verification, including the indeterminate band."""

import math
import random
import time
from fractions import Fraction

import pytest

from arctanforge import (
    ArctanTerm,
    DegenerateIdentityError,
    Identity,
    InconsistentInputError,
    InvalidArgumentError,
    Surd,
    golden_family,
    machin_pair,
    parse_identity,
    phi_power,
    pi_digits,
    quad_reduce,
    surd_normalize,
    value_sign,
    verify_exact,
    verify_numeric,
)
from arctanforge.engine import atan_series_split
from arctanforge.fixedpoint import FixedPointContext, _atan_series, _floor, pi_interval
from arctanforge.odot import NormalAngle
from arctanforge.values import _is_prime
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


def test_numeric_route_runs_no_fold(monkeypatch):
    # the cross-check must not lean on the route it checks, and a fold the
    # size of a 10^13 coefficient would never finish
    def no_fold(self):
        raise AssertionError("verify_numeric folded the identity")

    monkeypatch.setattr(Identity, "fold", no_fold)
    v = verify_numeric(MACHIN, digits=50)
    assert v.holds and not v.indeterminate and v.actual is None
    v = verify_numeric(WRONG, digits=50)
    assert not v.holds and not v.indeterminate and v.actual is None
    huge = parse_identity("47398913829403*atan(1/5) - atan(1/239) = 10/4*pi")
    start = time.perf_counter()
    v = verify_numeric(huge, digits=50)
    assert time.perf_counter() - start < 1.0
    assert not v.holds and not v.indeterminate


def test_numeric_surd_identity():
    v = verify_numeric(golden_family("even", 1), digits=100)
    assert v.holds
    # the first argument a + b*sqrt(5) has |a| near 10^41 but is about -4*10^25
    v = verify_numeric(golden_family("even", 100), digits=1000)
    assert v.holds and not v.indeterminate, v.numeric_residual


def test_numeric_zero_angle():
    v = verify_numeric(ident([(1, Fraction(0))], Fraction(0)), digits=10)
    assert v.holds


def test_exact_unsupported_rhs():
    # tan(pi/5) is neither rational nor quadratic, so no fold names pi/5
    v = verify_exact(ident([(1, Fraction(1, 2))], Fraction(1, 5)))
    assert not v.holds
    assert v.actual == NormalAngle(Fraction(1, 2), 0)


def test_numeric_accepts_off_lattice_rhs():
    # arctan(1/2) != pi/5, and the interval route should say so, not raise
    v = verify_numeric(ident([(1, Fraction(1, 2))], Fraction(1, 5)), digits=20)
    assert not v.holds and not v.indeterminate


def test_off_lattice_rhs_fails_on_both_routes():
    # no rational multiple of pi off the lattice of denominators dividing 8
    # or 12 has a rational or quadratic tangent, so no fold reaches these
    bases = [
        MACHIN,
        EULER,
        golden_family("odd", 1),
        quad_reduce(0, -2, surd_normalize(0, 1, 2)),
    ]
    for r in (Fraction(1, 5), Fraction(2, 7), Fraction(1, 9), Fraction(3, 10),
              Fraction(1, 16), Fraction(5, 24)):
        for base in bases:
            line = Identity(base.terms, r)
            exact = verify_exact(line)
            assert not exact.holds and exact.actual == base.fold(), (r, line)
            numeric = verify_numeric(line, 50)
            assert not numeric.holds and not numeric.indeterminate, (r, line)
        with pytest.raises(InconsistentInputError):
            pi_digits(Identity(MACHIN.terms, r), 10)


def test_numeric_digit_floor():
    with pytest.raises(InvalidArgumentError):
        verify_numeric(NEWTON, digits=9)
    assert issubclass(InvalidArgumentError, ValueError)  # older callers catch ValueError
    assert verify_numeric(NEWTON, digits=10).holds


def test_precision_must_be_an_int():
    # a float scale would put floats on the proof path; a cached int
    # precision must not answer for an equal float or bool
    pi_interval(12)
    pi_interval(1)
    for wp in (12.5, 12.0, True, "12"):
        with pytest.raises(InvalidArgumentError):
            FixedPointContext(wp)
        with pytest.raises(InvalidArgumentError):
            pi_interval(wp)
    for digits in (10.5, 20.0, True, Fraction(20)):
        with pytest.raises(InvalidArgumentError):
            verify_numeric(NEWTON, digits)


def test_numeric_indeterminate_band():
    # residual of 1e-8 at 30 digits: too big to hold, too small to condemn
    tiny = ident([(1, Fraction(1, 10**8))], Fraction(0))
    v = verify_numeric(tiny, digits=30)
    assert not v.holds and v.indeterminate
    # 1e-3 clears the noise floor: definite failure
    small = ident([(1, Fraction(1, 1000))], Fraction(0))
    v = verify_numeric(small, digits=30)
    assert not v.holds and not v.indeterminate


def test_verify_numeric_ten_thousand():
    pi_interval.cache_clear()
    start = time.perf_counter()
    v = verify_numeric(MACHIN, digits=10000)
    assert time.perf_counter() - start < 5.0
    assert v.holds and not v.indeterminate, v.numeric_residual


def test_exact_and_numeric_agree_on_grid():
    for x in range(2, 21, 3):
        for n in range(1, 21, 4):
            m = machin_pair(n, Fraction(x))
            assert verify_exact(m).holds
            assert verify_numeric(m, digits=20).holds


def test_three_routes_agree_on_machin_pairs():
    # the fold, the interval verdict and the digits agree on seeded
    # machin_pair identities, and a right side moved by a quarter turn
    # fails both verdict routes (the digit engine refuses it)
    rng = random.Random(89)
    for _ in range(16):
        n = rng.randint(1, 30)
        if rng.random() < 0.5:
            x = Fraction(rng.randint(2, 20))
        else:
            x = Fraction(rng.choice((7, 11, 13, 17)), rng.choice((2, 3)))
        digits = rng.randint(30, 300)
        start = time.perf_counter()
        m = machin_pair(n, x)
        assert verify_exact(m).holds
        v = verify_numeric(m, digits)
        assert v.holds and not v.indeterminate, (n, x, digits, v.numeric_residual)
        r = pi_digits(m, digits)
        assert not r.unrounded
        lo, hi = pi_interval(digits + 5)
        assert lo // 10**5 <= int(r.digits.replace(".", "")) <= hi // 10**5, (n, x)
        for shift in (Fraction(1, 4), Fraction(-1, 4)):
            wrong = Identity(m.terms, m.rhs + shift)
            assert not verify_exact(wrong).holds
            v = verify_numeric(wrong, digits)
            assert not v.holds and not v.indeterminate, (n, x, shift)
            with pytest.raises((InconsistentInputError, DegenerateIdentityError)):
                pi_digits(wrong, digits)
        assert time.perf_counter() - start < 10.0, (n, x, digits)


def test_falsified_surd_lines_are_refuted():
    # the unit of slack a surd argument adds to its enclosure leaves true
    # lines holding and lines off by a quarter turn refuted, never
    # indeterminate
    rng = random.Random(97)
    lines = []
    for kind in ("odd", "even", "lucas_minus", "lucas_plus"):
        for _ in range(2):
            lines.append(golden_family(kind, rng.randint(1, 300)))
    for _ in range(6):
        d = 2 * rng.randint(500, 4_999_998) + 1
        while not _is_prime(d):
            d += 2
        m = rng.randint(1, 9)
        lines.append(quad_reduce(2 * m, m * m - d, surd_normalize(m, 1, d)))
    for ident in lines:
        digits = rng.randint(100, 1000)
        start = time.perf_counter()
        v = verify_numeric(ident, digits)
        assert v.holds and not v.indeterminate, (ident, digits)
        for shift in (Fraction(1, 4), Fraction(-1, 4)):
            v = verify_numeric(Identity(ident.terms, ident.rhs + shift), digits)
            assert not v.holds and not v.indeterminate, (ident, digits, shift)
        assert time.perf_counter() - start < 5.0, (ident, digits)


def test_pi_interval_tightness():
    ctx = FixedPointContext(60)
    lo, hi = pi_interval(60)
    assert 0 < hi - lo <= 10**4  # within four ulp-digits of the working precision
    mid = Fraction(lo + hi, 2 * ctx.scale)
    # pi truncated to 60 decimals: known*S <= pi*S < known*S + 1, so every
    # integer enclosure of pi*S has lo <= known*S < hi
    known = Fraction(
        3141592653589793238462643383279502884197169399375105820974944, 10**60
    )
    assert abs(mid - known) < Fraction(1, 10**55)
    assert lo <= known * ctx.scale < hi


def _euler_powers(p: int, q: int, scale: int) -> int:
    """How many powers of Euler's series for arctan(|p|/q)*scale are taken.

    The first is floor(|p|*q*scale/r), r = p**2 + q**2, and the k-th is
    floor(previous * 2k*p**2/((2k+1)*r)), up to and including the first zero.
    """
    r = p * p + q * q
    power, n = abs(p) * q * scale // r, 1
    while power:
        power = power * 2 * n * p * p // ((2 * n + 1) * r)
        n += 1
    return n


def test_atan_series_against_split_oracle():
    rng = random.Random(97)
    pairs = [(1, 2), (-1, 2), (2, 4), (-3, 6), (1, 10**30), (-1, 10**30)]
    pairs += [(1, 5), (1, 7), (3, 79), (1, 239), (-10**40, 2 * 10**40 + 1)]
    while len(pairs) < 300:
        if rng.random() < 0.4:
            # a bit-burst chunk a/10**m
            q = 10 ** rng.randint(1, 32)
        else:
            q = rng.randint(2, 10 ** rng.randint(1, 40))
        p = rng.randint(1, q // 2 if rng.random() < 0.7 else min(9, q // 2))
        pairs.append((rng.choice((1, -1)) * p, q))
    for wp in (10, 50, 300, 1000):
        scale = 10**wp
        for p, q in pairs:
            lo, hi = _atan_series(p, q, scale)
            # the split's floor f has |f - arctan(p/q)*10**(wp + 40)| < 2
            f = atan_series_split(p, q, wp + 40)
            assert lo * 10**40 <= f - 2 and f + 2 <= hi * 10**40, (p, q, wp)
            # one-sided: the floored sum is the end nearer zero
            assert (0 <= lo if p > 0 else hi <= 0), (p, q, wp)
            assert _atan_series(-p, q, scale) == (-hi, -lo)
            assert hi - lo == 2 * _euler_powers(p, q, scale), (p, q, wp)


def _split_window(x: Fraction, digits: int) -> tuple[int, int]:
    """Integers lo <= arctan(x)*10**digits <= hi from binary splitting alone.

    arctan(x) = s*pi/2 - arctan(1/x) for |x| > 1, then
    arctan(t) = s*pi/4 + arctan((t - s)/(1 + s*t)) for |t| > 1/2, with s the
    sign, leave a series argument below 1/2; pi/4 is Machin's
    4*arctan(1/5) - arctan(1/239).
    """
    quarters, c, t = 0, 1, x
    if abs(t) > 1:
        s = 1 if t > 0 else -1
        quarters, c, t = 2 * s, -1, 1 / t
    if 2 * abs(t) > 1:
        s = 1 if t > 0 else -1
        quarters, t = quarters + c * s, (t - s) / (1 + s * t)
    lo = hi = 0
    for c, t in ((c, t), (4 * quarters, Fraction(1, 5)), (-quarters, Fraction(1, 239))):
        # the split's floor f has f - 10**-10 < arctan(t)*10**digits < f + 1 + 10**-10
        f = atan_series_split(t.numerator, t.denominator, digits)
        a, b = sorted((c * f, c * (f + 1)))
        lo, hi = lo + a - 1, hi + b + 1
    return lo, hi


def _surd_window(x, wp: int, c=Fraction(0), g: int = 5) -> tuple[int, int]:
    """Integers around arctan(x)*10**(wp + g) for a surd x with 1 + c*x > 0.

    arctan(x) = arctan(c) + arctan(y) with y = (x - c)/(1 + c*x); y has
    rational brackets y_lo <= y < y_hi, proved by exact signs, and arctan
    is increasing, so the split windows of c and the brackets enclose it.
    A c near x keeps the brackets' series short at large wp.
    """
    y = (x - c) / (1 + c * x)
    k = wp + g + 10
    n = _floor(y, 10**k)
    y_lo, y_hi = Fraction(n, 10**k), Fraction(n + 1, 10**k)
    assert value_sign(y - y_lo) >= 0 and value_sign(y_hi - y) > 0
    lo, hi = _split_window(c, wp + g) if c else (0, 0)
    return lo + _split_window(y_lo, wp + g)[0], hi + _split_window(y_hi, wp + g)[1]


def _assert_encloses(x, wp: int, window: tuple[int, int], g: int) -> None:
    # window is at scale 10**(wp + g), so a tight enclosure is not mistaken
    # for a wrong one; the width bound covers pi's share in the quarter turns
    lo, hi = FixedPointContext(wp).atan(x)
    assert lo * 10**g <= window[0] and window[1] <= hi * 10**g, (x, wp)
    assert hi - lo <= 150 * wp, (x, wp, hi - lo)


WPS = list(range(1, 13)) + [40, 500]


def test_interval_atan_contains_truth():
    rng = random.Random(79)
    args = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]
    args += [Fraction(10**30, 7), Fraction(-(10**50), 3), Fraction(7, 10**30)]
    args += [Fraction(-1, 10**40 + 1), Fraction(10**40 + 1, 10**40)]
    for _ in range(30):
        q = rng.randint(1, 10 ** rng.randint(1, 12))
        args.append(Fraction(rng.randint(-3 * q, 3 * q), q))
    for x in args:
        for wp in rng.sample(WPS, 4) + [500]:
            _assert_encloses(x, wp, _split_window(x, wp + 5), 5)
    for wp in WPS:
        assert FixedPointContext(wp).atan(Fraction(0)) == (0, 0)


def test_interval_atan_contains_surd_truth():
    # rational brackets x_lo <= x < x_hi, proved by exact signs, and
    # arctan increasing: the split windows of the brackets enclose arctan(x)
    rng = random.Random(83)
    huge = [phi_power(200), -phi_power(7), 1 / phi_power(200)]
    args = [Surd(1, 1, 2), surd_normalize(3, -1, 2) / 4, surd_normalize(0, Fraction(1, 10**20), 3)]
    for _ in range(20):
        d = rng.choice([2, 3, 5, 6, 7, 10007])
        a = Fraction(rng.randint(-1000, 1000), rng.randint(1, 100))
        b = Fraction(rng.choice((1, -1)) * rng.randint(1, 1000), rng.randint(1, 100))
        args.append(surd_normalize(a, b, d))
    # the split's cost grows like the cube of wp on a bracket with wp-digit
    # terms, so only the arguments that reduce to a small arctangent run at 500
    cases = [(x, wp) for x in huge + args for wp in rng.sample(WPS[:-1], 3)]
    for x, wp in cases + [(x, 500) for x in huge]:
        _assert_encloses(x, wp, _surd_window(x, wp), 5)


def test_interval_atan_surd_floor_edges():
    # atan floors a surd t to p/10**wp and adds a unit on each side; these
    # surds sit within 10**-wp of the points where that floor changes the
    # reduction: +-1/2 (the difference identity) and 0 (p = 0 or -1).  One
    # lies within 10**-10 units of a floor step, so the windows are taken
    # at 15 extra digits
    for wp in WPS + [500]:
        offsets = [
            Surd(0, Fraction(1, 10 ** (wp + 1)), 2),
            Surd(0, Fraction(1, 10 ** (wp + 20)), 3),
            Surd(Fraction(1, 10**wp), -Fraction(1, 10 ** (wp + 10)), 5),
        ]
        for c in (Fraction(1, 2), Fraction(-1, 2), Fraction(0)):
            for eps in offsets + [-e for e in offsets]:
                x = c + eps
                _assert_encloses(x, wp, _surd_window(x, wp, c, 15), 15)
        for x in (phi_power(400), 1 / phi_power(400)):
            for y in (x, -x):
                _assert_encloses(y, wp, _surd_window(y, wp, g=15), 15)


def test_interval_sqrt_and_surds():
    ctx = FixedPointContext(50)
    lo, hi = _floor(Surd(1, 2, 2), ctx.scale), -_floor(-Surd(1, 2, 2), ctx.scale)
    truth = Fraction(1) + 2 * Fraction(math.sqrt(2))
    slack = Fraction(1, 10**12)
    assert Fraction(lo, ctx.scale) <= truth + slack
    assert truth - slack <= Fraction(hi, ctx.scale)
    assert hi - lo <= 4
    # 1/phi^200 = a + b*sqrt(5) with |a|, |b| near 10^41: a near cancellation
    tiny = 1 / phi_power(200)
    lo, hi = _floor(tiny, ctx.scale), -_floor(-tiny, ctx.scale)
    assert value_sign(tiny - Fraction(lo, ctx.scale)) > 0
    assert value_sign(Fraction(hi, ctx.scale) - tiny) > 0
    assert hi - lo <= 4


def test_sci_beyond_int_str_limit():
    # residuals of a false identity at 4400+ digits have that many digits
    assert _sci(7 * 10**4999 + 12345, 10) == "7.00000e+4989"
    assert _sci(-123456789 * 10**4991, 5000) == "-1.23456e-1"
