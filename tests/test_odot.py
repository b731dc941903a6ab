"""The composition product, angle folding, and composition roots."""

import math
import random
from fractions import Fraction

import pytest

from arctanforge import (
    DegenerateArgumentError,
    InvalidArgumentError,
    NormalAngle,
    RightAngleError,
    Surd,
    UnsupportedRadicalError,
    fold_terms,
    lucas,
    odot,
    odot_pow,
    phi_power,
    root_poly,
    uv_pair,
    value_sign,
)
from arctanforge.odot import _PI_MULTIPLES, ZERO_ANGLE


def rnd_fraction(rng, span=20):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def test_odot_basics():
    assert odot(Fraction(1, 2), Fraction(1, 3)) == 1
    assert odot(Fraction(1, 2), 0) == Fraction(1, 2)
    assert odot(2, 3) == -1
    with pytest.raises(RightAngleError):
        odot(Fraction(1, 2), 2)


def test_odot_commutative_associative():
    rng = random.Random(3)
    checked = 0
    for _ in range(200):
        x, y, z = (rnd_fraction(rng) for _ in range(3))
        try:
            assert odot(x, y) == odot(y, x)
            assert odot(odot(x, y), z) == odot(x, odot(y, z))
            checked += 1
        except RightAngleError:
            pass
    assert checked > 150


def test_odot_pow_matches_uv():
    x = Fraction(3)
    for n in range(1, 9):
        p = uv_pair(n, x)
        assert odot_pow(1 / x, n) == Fraction(p.v, p.u)
    # x composed n times: u/v for odd n, -v/u for even n
    x = Fraction(2, 5)
    for n in range(1, 9):
        p = uv_pair(n, x)
        want = p.u / p.v if n % 2 else -(p.v / p.u)
        assert odot_pow(x, n) == want


def test_odot_pow_matches_iteration():
    rng = random.Random(17)
    checked = 0
    for _ in range(100):
        x = rnd_fraction(rng)
        if abs(x) == 1:
            continue
        for n in range(1, 11):
            acc = x
            try:
                for _ in range(n - 1):
                    acc = odot(acc, x)
            except RightAngleError:
                break
            assert odot_pow(x, n) == acc, (x, n)
            checked += 1
    assert checked > 500


def test_odot_pow_degenerate_inputs():
    with pytest.raises(DegenerateArgumentError):
        odot_pow(Fraction(1), 3)
    with pytest.raises(DegenerateArgumentError):
        odot_pow(1 / Fraction(-1), 2)
    with pytest.raises(InvalidArgumentError):
        odot_pow(Fraction(2), 0)


def test_odot_pow_right_angle():
    # 3*arctan(1/sqrt(3)) = pi/2 exactly; rational x cannot get here
    inv_sqrt3 = Surd(0, Fraction(1, 3), 3)
    with pytest.raises(RightAngleError):
        odot_pow(inv_sqrt3, 3)
    with pytest.raises(RightAngleError):
        odot_pow(1 / Surd(0, 1, 3), 3)


def test_odot_pow_odd_half_turn_count():
    # 4*arctan(1/sqrt(3)) = 2*pi/3 = arctan(1/sqrt(3)) + pi/2: the tangent of
    # an odd half-turn count is -1/t
    assert odot_pow(Surd(0, Fraction(1, 3), 3), 4) == Surd(0, -1, 3)
    assert odot_pow(1 / Surd(0, 1, 3), 4) == Surd(0, -1, 3)


def test_odot_pow_zero_argument():
    assert odot_pow(Fraction(0), 3) == 0
    assert odot_pow(1 / Fraction(2), 1) == Fraction(1, 2)


def test_normal_angle_canonical():
    assert NormalAngle(Fraction(3), 0).canonical() == NormalAngle(Fraction(-1, 3), 1)
    assert NormalAngle(Fraction(-3), 0).canonical() == NormalAngle(Fraction(1, 3), -1)
    assert NormalAngle(Fraction(-1), 2).canonical() == NormalAngle(Fraction(1), 1)
    inside = NormalAngle(Fraction(1, 2), 4)
    assert inside.canonical() is inside
    assert NormalAngle(Fraction(1), 0).canonical() == NormalAngle(Fraction(1), 0)


def test_same_angle():
    assert NormalAngle(Fraction(3), 0).same_angle(NormalAngle(Fraction(-1, 3), 1))
    assert not NormalAngle(Fraction(3), 0).same_angle(NormalAngle(Fraction(3), 2))


def test_fold_branches():
    # product below 1: plain composition
    st = fold_terms([(1, Fraction(1, 2)), (1, Fraction(1, 5))])
    assert st == NormalAngle(Fraction(7, 9), 0)
    # product above 1: half-turn jump, uncanonicalized output
    st = fold_terms([(1, Fraction(2)), (1, Fraction(3))])
    assert st == NormalAngle(Fraction(-1), 2)
    assert st.to_pi_multiple() == Fraction(3, 4)
    # exact right angle mid-fold
    st = fold_terms([(1, Fraction(1, 2)), (1, Fraction(2))])
    assert st == NormalAngle(Fraction(0), 1)
    # negative driver
    st = fold_terms([(1, Fraction(-2)), (1, Fraction(-3))])
    assert st == NormalAngle(Fraction(1), -2)


def test_fold_term_coefficients():
    half = NormalAngle(Fraction(1, 2), 0)
    assert ZERO_ANGLE + 2 * half == NormalAngle(Fraction(4, 3), 0)
    assert ZERO_ANGLE + -2 * half == NormalAngle(Fraction(-4, 3), 0)
    assert ZERO_ANGLE + 0 * half == ZERO_ANGLE


def test_fold_matches_float():
    rng = random.Random(41)
    for _ in range(100):
        terms = [(rng.randint(-3, 3), rnd_fraction(rng)) for _ in range(4)]
        terms = [(c, a) for c, a in terms if c]
        st = fold_terms(terms)
        want = sum(c * math.atan(float(a)) for c, a in terms)
        assert math.isclose(float(st), want, rel_tol=1e-9, abs_tol=1e-9)


def test_float_of_a_tangent_past_float_range():
    # float() takes the canonical tangent in (-1, 1], so a huge t gives
    # about pi/2 rather than an overflow
    assert float(NormalAngle(Fraction(lucas(1601), 2), 0)) == 1.5707963267948966
    assert float(NormalAngle(phi_power(1601), 0)) == 1.5707963267948966
    assert float(NormalAngle(-phi_power(1601), 3)) == pytest.approx(math.pi)


def test_pi_multiple_round_trip():
    # every tabulated tangent, shifted by half-turns, names its r + h/2
    assert len(_PI_MULTIPLES) == 8
    for t, r in _PI_MULTIPLES.items():
        assert -Fraction(1, 4) < r <= Fraction(1, 4)
        for h in range(-3, 4):
            angle = NormalAngle(t, h)
            assert angle.to_pi_multiple() == r + Fraction(h, 2)
            assert abs(float(angle) - float(r + Fraction(h, 2)) * math.pi) < 1e-12


def test_pi_multiple_unsupported():
    assert NormalAngle(Fraction(1, 2), 0).to_pi_multiple() is None


def test_root_poly_quadratic_shape():
    rng = random.Random(43)
    for _ in range(20):
        x = rnd_fraction(rng)
        if abs(x) == 1:
            continue
        poly = root_poly(2, x)
        assert poly.coefficients == (-x, Fraction(2), x)  # x*z^2 + 2z - x
        assert poly.degree == 2


def test_root_poly_roots_compose_back():
    for x in [Fraction(1, 2), Fraction(2), Fraction(3)]:
        for r in root_poly(2, x).roots():
            assert odot_pow(r, 2) == x
    # first order: the root is x itself
    poly = root_poly(1, Fraction(2, 3))
    assert poly.roots() == (Fraction(2, 3),)
    assert odot_pow(Fraction(2, 3), 1) == Fraction(2, 3)


def test_root_poly_cubic():
    x = Fraction(1, 2)
    poly = root_poly(3, x)
    # x*v3 - u3 with u3 = z^3 - 3z, v3 = 3z^2 - 1
    assert poly.coefficients == (-x, Fraction(3), 3 * x, Fraction(-1))
    z = Fraction(1, 7)
    assert poly.evaluate(z) == x * (3 * z**2 - 1) - (z**3 - 3 * z)
    with pytest.raises(UnsupportedRadicalError):
        poly.roots()


def test_root_poly_evaluate_at_root_is_zero():
    x = Fraction(3)
    poly = root_poly(2, x)
    for r in poly.roots():
        assert float(poly.evaluate(r)) == 0
        assert poly.evaluate(r) == 0


def test_root_poly_at_zero():
    # z^(*2) = 0 at z = 0 only: 0*u_2(z) + v_2(z) = 2z
    poly = root_poly(2, 0)
    assert poly.coefficients == (0, 2, 0)
    assert poly.roots() == (0,)


def test_root_poly_degenerate():
    with pytest.raises(DegenerateArgumentError):
        root_poly(2, Fraction(1))
    with pytest.raises(InvalidArgumentError):
        root_poly(0, Fraction(2))


def test_surd_fold():
    phi = Surd(Fraction(1, 2), Fraction(1, 2), 5)
    st = fold_terms([(1, Fraction(1, 2)), (2, 1 / phi)])
    assert st.to_pi_multiple() == Fraction(1, 2)


def _fold_copies(state, coeff, arg):
    """Per-copy fold, one arctangent at a time: the oracle for + and *."""
    y = arg if coeff >= 0 else -arg
    for _ in range(abs(coeff)):
        s = state.t
        c = value_sign(s * y - 1)
        if c < 0:
            state = NormalAngle((s + y) / (1 - s * y), state.h)
        elif c > 0:
            state = NormalAngle((s + y) / (1 - s * y), state.h + 2 * value_sign(s))
        else:
            state = NormalAngle(Fraction(0), state.h + value_sign(s))
    return state


# tan of multiples of pi/12 and pi/8: folds of these pass exact right angles
_SURD_ARGS = (
    Surd(0, Fraction(1, 3), 3),  # 1/sqrt(3)
    Surd(0, 1, 3),  # sqrt(3)
    Surd(2, 1, 3),
    Surd(2, -1, 3),
    Surd(1, 1, 2),
    Surd(1, -1, 2),
)


def _random_arg(rng):
    if rng.random() < 0.5:
        return rnd_fraction(rng)
    return rng.choice(_SURD_ARGS) * rng.choice((1, -1))


def test_scaling_and_fold_term_match_per_copy_fold():
    rng = random.Random(2024)
    for _ in range(50):
        arg = _random_arg(rng)
        c = rng.randint(-300, 300)
        want = _fold_copies(ZERO_ANGLE, c, arg).canonical()
        assert (c * NormalAngle(arg, 0)).canonical() == want, (c, arg)
        state = NormalAngle(rnd_fraction(rng), rng.randint(-3, 3))
        got = (state + c * NormalAngle(arg, 0)).canonical()
        assert got == _fold_copies(state, c, arg).canonical(), (state, c, arg)


def test_right_angles_mid_fold():
    # 3*arctan(1/sqrt(3)) = pi/2 and 4*arctan(2 + sqrt(3)) = 5*pi/3
    assert (3 * NormalAngle(_SURD_ARGS[0], 0)).to_pi_multiple() == Fraction(1, 2)
    assert (4 * NormalAngle(_SURD_ARGS[2], 0)).to_pi_multiple() == Fraction(5, 3)
    for arg in _SURD_ARGS:
        for c in range(-24, 25):
            want = _fold_copies(ZERO_ANGLE, c, arg)
            assert (ZERO_ANGLE + c * NormalAngle(arg, 0)).same_angle(want), (c, arg)


def _random_angle(rng):
    return NormalAngle(_random_arg(rng), rng.randint(-4, 4))


def _random_rational_angle(rng):
    return NormalAngle(rnd_fraction(rng), rng.randint(-4, 4))


def test_angle_group_laws():
    rng = random.Random(77)
    for _ in range(200):
        a, b, c = (_random_rational_angle(rng) for _ in range(3))
        assert ((a + b) + c).same_angle(a + (b + c))
        assert (a + b).same_angle(b + a)
        assert (a + ZERO_ANGLE).same_angle(a)
        assert (a + (-a)).canonical() == ZERO_ANGLE
    for _ in range(100):
        a = _random_angle(rng)
        n, m = rng.randint(-20, 20), rng.randint(-20, 20)
        assert (n * (m * a)).same_angle((n * m) * a), (n, m, a)
        assert ((n + m) * a).same_angle(n * a + m * a), (n, m, a)
        assert (a + (-a)).canonical() == ZERO_ANGLE
    with pytest.raises(TypeError):
        a + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * a
