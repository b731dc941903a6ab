"""Identity families: exact arguments, winding counts, error surfaces."""

import random
import time
from fractions import Fraction

import pytest

from arctanforge import (
    ArctanTerm,
    DegenerateArgumentError,
    Identity,
    InconsistentInputError,
    InvalidArgumentError,
    RightAngleError,
    Surd,
    UnsupportedRadicalError,
    diff_identity,
    golden_family,
    half_turn,
    lucas,
    machin_pair,
    phi_power,
    quad_reduce,
    surd_normalize,
    value_sign,
    verify_exact,
)
from oracles import winding_correction_literal, winding_input


def winding_correction(n, x):
    # the winding k of machin_pair, as its fold decides it
    return machin_pair(n, x).rhs - Fraction(1, 4)


def terms_of(ident):
    return [(t.coeff, t.arg) for t in ident.terms]


def test_machin_pair_paper_grid():
    cases = {
        (7, 3): (Fraction(-278, 29), Fraction(1, 4)),
        (8, 3): (Fraction(863, 191), Fraction(5, 4)),
        (5, 2): (Fraction(-79, 3), Fraction(1, 4)),
        (2, 7): (Fraction(17, 31), Fraction(1, 4)),
    }
    for (n, x), (arg2, rhs) in cases.items():
        ident = machin_pair(n, Fraction(x))
        assert terms_of(ident) == [(n, Fraction(1, x)), (1, arg2)]
        assert ident.rhs == rhs


def test_machin_pair_large_winding():
    # 20*atan(1/2) is past 3*pi: k = 3, not 2
    ident = machin_pair(20, Fraction(2))
    assert ident.rhs == Fraction(13, 4)
    assert winding_correction(20, 2) == 3
    assert winding_correction_literal(20, 2) == 3


def test_machin_pair_huge_coefficient():
    # O(log n) folding and u/v powering take a small fraction of the time
    # bound; a fold that steps once per unit of n takes far longer
    start = time.perf_counter()
    ident = machin_pair(20000, Fraction(3))
    assert verify_exact(ident).holds
    assert time.perf_counter() - start < 5.0
    assert ident.rhs - Fraction(1, 4) == winding_correction_literal(20000, 3) == 2048


def test_machin_pair_fractional_x():
    ident = machin_pair(3, Fraction(5, 2))
    assert verify_exact(ident).holds
    assert ident.terms[0].arg == Fraction(2, 5)


def test_machin_pair_errors():
    with pytest.raises(DegenerateArgumentError):
        machin_pair(4, Fraction(1))
    with pytest.raises(DegenerateArgumentError):
        machin_pair(4, Fraction(0))
    with pytest.raises(InvalidArgumentError):
        machin_pair(0, Fraction(3))


def test_machin_pair_right_angle():
    # u_2 + v_2 = x^2 + 2x - 1 vanishes at x = -1 - sqrt(2)
    with pytest.raises(RightAngleError):
        machin_pair(2, Surd(-1, -1, 2))


def test_winding_paths_agree_sample():
    rng = random.Random(59)
    for _ in range(25):
        n = rng.randint(1, 20)
        x = Fraction(rng.randint(2, 20))
        assert winding_correction(n, x) == winding_correction_literal(n, x), (n, x)
    for n, x, k in [(7, 3, 0), (8, 3, 1), (5, 2, 0), (2, 7, 0)]:
        assert winding_correction(n, Fraction(x)) == k
        assert winding_correction_literal(n, Fraction(x)) == k


def test_winding_negative_x():
    # negating x flips the quadrant walk; both counting paths must still agree
    # and the identity must stay exact
    for n, x in [(7, 3), (8, 3), (20, 2), (5, 2)]:
        k_fold = winding_correction(n, Fraction(-x))
        assert k_fold == winding_correction_literal(n, Fraction(-x))
        ident = machin_pair(n, Fraction(-x))
        assert ident.rhs == Fraction(1, 4) + k_fold
        assert verify_exact(ident).holds
    assert winding_correction(7, Fraction(-3)) == -1


def test_winding_input_diagnostic():
    wi = winding_input(20, Fraction(2))
    assert wi.n == 20 and wi.x == 2
    assert abs(float(wi.T) - 2.7016725) < 1e-5


def test_quad_reduce_sqrt2():
    ident = quad_reduce(0, -2, Surd(0, 1, 2))
    (c1, a1), (c2, a2) = terms_of(ident)
    assert (c1, a1) == (2, Surd(0, Fraction(1, 2), 2))  # 1/sqrt(2)
    # (1 - 2*sqrt(2))/(1 + 2*sqrt(2))
    assert a2 == (1 - 2 * Surd(0, 1, 2)) / (1 + 2 * Surd(0, 1, 2))
    assert ident.rhs == Fraction(1, 4)


def test_quad_reduce_sqrt29():
    alpha = surd_normalize(70, 13, 29)  # (5 + sqrt(29))^3 / 8
    ident = quad_reduce(140, -1, alpha)
    assert terms_of(ident) == [(2, Surd(-70, 13, 29)), (1, Fraction(69, 71))]
    assert ident.rhs == Fraction(1, 4)


def test_quad_reduce_phi():
    ident = quad_reduce(1, -1, phi_power(1))
    (c1, a1), (c2, a2) = terms_of(ident)
    assert a1 == 1 / phi_power(1)
    assert a2 == Fraction(-1, 3)  # (L1 - 2)/(L1 + 2)
    assert ident.rhs == Fraction(1, 4)


def test_quad_reduce_degenerate_companions():
    # t^2 - 2t - 1 at alpha = 1 + sqrt(2): denominator form vanishes, the
    # companion argument collapses to 0
    ident = quad_reduce(2, -1, surd_normalize(1, 1, 2))
    assert terms_of(ident)[1] == (1, Fraction(0))
    assert ident.rhs == Fraction(1, 4)
    assert verify_exact(ident).holds
    # t^2 + 2t - 1 at alpha = -1 + sqrt(2): numerator form vanishes
    with pytest.raises(RightAngleError):
        quad_reduce(-2, -1, surd_normalize(-1, 1, 2))


def test_quad_reduce_validates_root():
    with pytest.raises(InconsistentInputError):
        quad_reduce(3, -1, Surd(0, 1, 2))
    with pytest.raises(InconsistentInputError):
        quad_reduce(0, -2, Fraction(1, 2))
    # the message prints h and kq past the interpreter's int-str limit
    with pytest.raises(InconsistentInputError):
        quad_reduce(10**5000, -(10**5000), Surd(0, 1, 2))


def test_golden_odd_matches_closed_form():
    # second argument is (L_m - 2)/(L_m + 2) for odd m
    for k in range(10):
        m = 2 * k + 1
        ident = golden_family("odd", k)
        assert terms_of(ident)[0] == (2, 1 / phi_power(m))
        assert terms_of(ident)[1] == (1, Fraction(lucas(m) - 2, lucas(m) + 2))


def test_golden_even_k1():
    ident = golden_family("even", 1)
    assert terms_of(ident) == [(2, 1 / phi_power(2)), (1, Surd(9, -4, 5))]
    assert ident.rhs == Fraction(1, 4)


def test_golden_lucas_pairs():
    minus = golden_family("lucas_minus", 0)
    assert terms_of(minus) == [(1, Fraction(1, 2)), (-2, phi_power(1))]
    assert minus.rhs == Fraction(-1, 2)
    plus = golden_family("lucas_plus", 0)
    assert terms_of(plus) == [(1, Fraction(1, 2)), (2, 1 / phi_power(1))]
    assert plus.rhs == Fraction(1, 2)


def test_golden_only_lucas():
    ident = golden_family("only_lucas", 0)
    assert terms_of(ident) == [(1, Fraction(1, 2)), (-1, Fraction(-1, 3))]
    assert ident.rhs == Fraction(1, 4)


def test_golden_family_parameter_errors():
    with pytest.raises(InvalidArgumentError):
        golden_family("even", 0)
    with pytest.raises(InvalidArgumentError):
        golden_family("odd", -1)
    with pytest.raises(InvalidArgumentError):
        golden_family("square", 1)


def test_half_turn_rational():
    plus, minus = half_turn(Fraction(3, 4))
    assert terms_of(plus) == [(2, Fraction(1, 2)), (1, Fraction(3, 4))]
    assert plus.rhs == Fraction(1, 2)
    assert terms_of(minus) == [(2, Fraction(-2)), (1, Fraction(3, 4))]
    assert minus.rhs == Fraction(-1, 2)


def test_half_turn_zero():
    plus, minus = half_turn(Fraction(0))
    assert terms_of(plus) == [(2, Fraction(1)), (1, Fraction(0))]
    assert plus.rhs == Fraction(1, 2)
    assert minus.rhs == Fraction(-1, 2)


def test_half_turn_lucas():
    plus, minus = half_turn(Fraction(1, 2))
    assert terms_of(plus)[0] == (2, Surd(Fraction(-1, 2), Fraction(1, 2), 5))
    assert terms_of(minus)[0] == (2, -phi_power(1))
    assert (plus.rhs, minus.rhs) == (Fraction(1, 2), Fraction(-1, 2))
    # works for every odd-index Lucas half: sqrt(4 + L^2) = F*sqrt(5)
    for m in (3, 5, 7):
        p, q = half_turn(Fraction(lucas(m), 2))
        assert verify_exact(p).holds and verify_exact(q).holds


def test_half_turn_argument_product():
    rng = random.Random(61)
    for _ in range(30):
        t = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        if t == 1:
            continue
        x = (t * t - 1) / (2 * t)  # makes 1 + x^2 a rational square
        plus, minus = half_turn(x)
        y1, y2 = plus.terms[0].arg, minus.terms[0].arg
        assert y1 * y2 == -1


def test_half_turn_unrepresentable_root():
    with pytest.raises(UnsupportedRadicalError):
        half_turn(phi_power(1))
    with pytest.raises(UnsupportedRadicalError):
        half_turn(Surd(0, 1, 2))  # root sqrt(3) lives in another field


def test_diff_identity_values():
    ident = diff_identity(Fraction(1, 2))
    assert terms_of(ident) == [(1, Fraction(1, 2)), (-1, Fraction(-1, 3))]
    assert ident.rhs == Fraction(1, 4)
    ident = diff_identity(Fraction(-3, 2))
    assert terms_of(ident) == [(1, Fraction(-3, 2)), (-1, Fraction(5))]
    assert ident.rhs == Fraction(-3, 4)
    sq2half = surd_normalize(0, Fraction(1, 2), 2)
    ident = diff_identity(sq2half)
    assert ident.rhs == Fraction(1, 4)
    assert ident.terms[1].arg == (sq2half - 1) / (sq2half + 1)


def test_diff_identity_sign_rule():
    rng = random.Random(67)
    above = below = 0
    while above < 100 or below < 100:
        f = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
        if f == -1:
            continue
        ident = diff_identity(f)
        if f > -1:
            assert ident.rhs == Fraction(1, 4)
            above += 1
        else:
            assert ident.rhs == Fraction(-3, 4)
            below += 1


def test_diff_identity_pole():
    with pytest.raises(DegenerateArgumentError):
        diff_identity(Fraction(-1))


def test_all_generated_identities_verify():
    rng = random.Random(71)
    idents = []
    for _ in range(15):
        idents.append(machin_pair(rng.randint(1, 12), Fraction(rng.randint(2, 12))))
    for kind in ("odd", "lucas_minus", "lucas_plus", "only_lucas"):
        idents.append(golden_family(kind, rng.randint(0, 6)))
    idents.append(golden_family("even", rng.randint(1, 6)))
    idents.extend(half_turn(Fraction(3, 4)))
    idents.append(diff_identity(Fraction(7, 5)))
    idents.append(quad_reduce(0, -8, surd_normalize(0, 2, 2)))
    for ident in idents:
        assert verify_exact(ident).holds, ident


def test_identity_type_invariants():
    with pytest.raises(InvalidArgumentError):
        ArctanTerm(0, Fraction(1, 2))
    with pytest.raises(InvalidArgumentError):
        Identity((), Fraction(1, 4))
    ident = Identity([ArctanTerm(1, Fraction(1, 2))], Fraction(1, 4))
    assert isinstance(ident.terms, tuple)
    assert value_sign(ident.terms[0].arg - Fraction(1, 2)) == 0
