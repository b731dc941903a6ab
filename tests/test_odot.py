"""The composition product, angle folding, and composition roots."""

import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from arctanforge import (
    DegenerateArgumentError,
    IncompatibleFieldError,
    InvalidArgumentError,
    NormalAngle,
    OdotPolynomial,
    RightAngleError,
    Surd,
    UnsupportedRadicalError,
    fold_terms,
    half_turn,
    lucas,
    odot,
    odot_pow,
    phi_power,
    root_poly,
    uv_pair,
    value_sign,
)
from arctanforge.odot import _PI_MULTIPLES, ZERO_ANGLE
from oracles import angle_double_and_add, angle_multiple, angle_sum


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
    # 5*arctan(sqrt(2) - 1) = 5*pi/8 = arctan(-1/(sqrt(2) - 1)) + pi/2 folds to
    # h = 1, so the tangent is -1/t there
    assert odot_pow(Surd(-1, 1, 2), 5) == Surd(-1, -1, 2)


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
    # equal canonical forms mean equal angles
    assert NormalAngle(Fraction(3), 0).canonical() == NormalAngle(Fraction(-1, 3), 1).canonical()
    assert NormalAngle(Fraction(3), 0).canonical() != NormalAngle(Fraction(3), 2).canonical()


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
    # a constant polynomial has no roots
    assert OdotPolynomial((Fraction(3),), 0, Fraction(2)).roots() == ()


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


def test_root_poly_refuses_n_past_a_list_length():
    # a 60-digit n cannot size a coefficient list: a typed error that
    # names n and not its value, before anything is allocated
    with pytest.raises(InvalidArgumentError, match="^n must be less than") as caught:
        root_poly(10**60, Fraction(1, 3))
    assert "1000" not in str(caught.value)


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
            got = ZERO_ANGLE + c * NormalAngle(arg, 0)
            assert got.canonical() == want.canonical(), (c, arg)


def _random_angle(rng):
    return NormalAngle(_random_arg(rng), rng.randint(-4, 4))


def _random_rational_angle(rng):
    return NormalAngle(rnd_fraction(rng), rng.randint(-4, 4))


def test_angle_group_laws():
    rng = random.Random(77)
    for _ in range(200):
        a, b, c = (_random_rational_angle(rng) for _ in range(3))
        assert ((a + b) + c).canonical() == (a + (b + c)).canonical()
        assert (a + b).canonical() == (b + a).canonical()
        assert (a + ZERO_ANGLE).canonical() == a.canonical()
        assert (a + (-a)).canonical() == ZERO_ANGLE
    for _ in range(100):
        a = _random_angle(rng)
        n, m = rng.randint(-20, 20), rng.randint(-20, 20)
        assert (n * (m * a)).canonical() == ((n * m) * a).canonical(), (n, m, a)
        assert ((n + m) * a).canonical() == (n * a + m * a).canonical(), (n, m, a)
        assert (a + (-a)).canonical() == ZERO_ANGLE
    with pytest.raises(TypeError):
        a + Fraction(1, 2)
    with pytest.raises(TypeError):
        Fraction(1, 2) * a


def test_fold_matches_double_and_add_oracle():
    # rational tangents up to 5 in size, 0 and +-1 among them, against the
    # Fraction tangent rule and double-and-add that the fold replaced
    rng = random.Random(2026)
    seen = set()
    for _ in range(5000):
        q = rng.randint(1, 6)
        a = NormalAngle(Fraction(rng.randint(-5 * q, 5 * q), q), rng.randint(-3, 3))
        b = NormalAngle(Fraction(rng.randint(-5 * q, 5 * q), q), rng.randint(-3, 3))
        n = rng.randint(-300, 300)
        seen.add(min(abs(a.t), 2))
        want = angle_multiple(n, a)
        got = n * a
        assert (got.t, got.h) == (want.t, want.h), (n, a)
        assert a + b == angle_sum(a, b), (a, b)
    assert {0, 1, 2} <= seen


def test_fold_power_reduces_once(monkeypatch):
    # the Gaussian power runs on ints; double-and-add made 121 gcd calls here
    calls = []
    gcd = math.gcd

    def counting_gcd(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counting_gcd)
    angle = 4963 * NormalAngle(Fraction(1, 5), 0)
    monkeypatch.undo()
    assert len(calls) <= 3
    assert angle == angle_multiple(4963, NormalAngle(Fraction(1, 5), 0))


def _random_surd(rng, d):
    # parts with unequal denominators, so no tangent of a rational multiple
    # of pi (those are compared by canonical form above)
    while True:
        qa, qb = rng.randint(1, 12), rng.randint(1, 12)
        if qa != qb:
            b = rng.choice((1, -1)) * rng.randint(1, 30)
            return Surd(Fraction(rng.randint(-30, 30), qa), Fraction(b, qb), d)


def test_surd_angles_match_double_and_add_oracle():
    # (t, h) structurally equal to double-and-add and the tangent rule on
    # Values, the route that the integer Gaussian loop replaced
    rng = random.Random(2027)
    for _ in range(500):
        d = rng.choice((2, 3, 5, 6, 7, 10))
        a = NormalAngle(_random_surd(rng, d), rng.randint(-3, 3))
        b_arg = _random_surd(rng, d) if rng.random() < 0.7 else rnd_fraction(rng)
        b = NormalAngle(b_arg, rng.randint(-3, 3))
        n = rng.randint(-300, 300)
        got, want = n * a, angle_double_and_add(n, a)
        assert (got.t, got.h) == (want.t, want.h), (n, a)
        for x, y in ((a, b), (b, a)):
            got, want = x + y, angle_sum(x, y)
            assert (got.t, got.h) == (want.t, want.h), (x, y)


def test_mixed_fields_fail_before_any_power(monkeypatch):
    def no_power(*args, **kwargs):
        raise AssertionError("a power was taken")

    # the package exports a function named odot, so import the module by name
    monkeypatch.setattr(importlib.import_module("arctanforge.odot"), "_gauss_pow", no_power)
    root2, root3 = Surd(Fraction(1, 7), Fraction(1, 11), 2), Surd(Fraction(1, 5), Fraction(1, 3), 3)
    with pytest.raises(IncompatibleFieldError, match=r"cannot mix sqrt\(2\) with sqrt\(3\)"):
        fold_terms([(10**4, root2), (10**4, root3)])
    with pytest.raises(IncompatibleFieldError, match=r"cannot mix sqrt\(3\) with sqrt\(2\)"):
        fold_terms(iter([(1, Fraction(1, 2)), (10**4, root3), (10**4, root2)]))
    with pytest.raises(IncompatibleFieldError):
        NormalAngle(root2, 0) + NormalAngle(root3, 0)
    with pytest.raises(UnsupportedRadicalError):
        half_turn(Surd(0, 1, 2))  # root sqrt(3) lives in another field


def test_fold_gives_one_form_in_every_order():
    # one product of all terms, reduced once: the form of a sum does not
    # depend on the order of its terms, also past a right angle mid-fold
    terms = [(1, Fraction(1, 2)), (1, Fraction(2)), (1, Fraction(1, 3))]
    for order in itertools.permutations(terms):
        assert fold_terms(order) == NormalAngle(Fraction(-3), 2), order
    for order in ([(3, 1), (1, Fraction(1, 2))], [(1, Fraction(1, 2)), (3, 1)]):
        assert fold_terms(order) == NormalAngle(Fraction(-1, 3), 2), order


def test_fold_terms_match_left_to_right_oracle():
    # each term by double-and-add over the tangent rule, summed left to
    # right, against the one product; arguments 0, +-1, rationals and
    # surds of one field per fold
    rng = random.Random(2031)
    fields = ([a for a in _SURD_ARGS if a.d == 3], [a for a in _SURD_ARGS if a.d == 2])
    for _ in range(150):
        surds = rng.choice(fields)
        terms = []
        for _ in range(rng.randint(1, 4)):
            pick = rng.random()
            if pick < 0.15:
                arg = Fraction(rng.choice((0, 1, -1)))
            elif pick < 0.6:
                arg = rnd_fraction(rng)
            else:
                arg = rng.choice(surds) * rng.choice((1, -1))
            terms.append((rng.randint(-300, 300), arg))
        want = NormalAngle(Fraction(0), 0)
        for c, arg in terms:
            want = angle_sum(want, angle_double_and_add(c, NormalAngle(arg, 0)))
        assert fold_terms(terms).canonical() == want.canonical(), terms


def test_fold_takes_quarter_turns_for_plus_minus_one(monkeypatch):
    # (1 +- i)^2 = +-2i, so a huge coefficient of atan(+-1) costs no power
    module = importlib.import_module("arctanforge.odot")
    power = module._gauss_pow

    def small_power(re, im, n, d, **kwargs):
        assert n <= 1, "a power of 1 +- i was taken"
        return power(re, im, n, d, **kwargs)

    monkeypatch.setattr(module, "_gauss_pow", small_power)
    angle = fold_terms([(10**18, 1), (1, Fraction(1, 2))])
    assert angle == NormalAngle(Fraction(1, 2), 10**18 // 2)
    assert fold_terms([(-(10**18) - 1, 1)]).to_pi_multiple() == Fraction(-(10**18) - 1, 4)
