"""Binary-splitting digit engine and convergence measure."""

import contextlib
import decimal
import importlib.util
import math
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from arctanforge import (
    ArctanTerm,
    DegenerateArgumentError,
    DegenerateIdentityError,
    DigitResult,
    Identity,
    InconsistentInputError,
    InvalidArgumentError,
    NormalAngle,
    Surd,
    diff_identity,
    golden_family,
    half_turn,
    lehmer_measure,
    machin_pair,
    pi_digits,
    quad_reduce,
    surd_normalize,
)
from arctanforge import engine
from arctanforge.engine import atan_series_split
from arctanforge.fixedpoint import _floor
from oracles import euler_partial_floor


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
    # arctan(+-1) = +-pi/4 is inside the domain of Euler's series
    assert atan_series_split(1, 1, 20) == 78539816339744830961
    assert atan_series_split(-5, 5, 20) == -78539816339744830962
    for p, q in [(3, 2), (79, 3), (10**5000, 3)]:
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError):
            atan_series_split(p, q, 20)
        assert time.perf_counter() - start < 0.1


def euler_tail_holds(p: int, q: int, n: int, decimals: int) -> bool:
    """Whether n terms of Euler's series for arctan(p/q) pass the tail test."""
    return 10**decimals * abs(p) ** (2 * n + 1) < q * (p * p + q * q) ** n


class TermCount(Exception):
    """Raised by a spy in place of the root split, carrying its term count."""


def term_count(monkeypatch, p, q, digits: int, num=int) -> int:
    def spy(p, q, lo, hi, *args, **kwargs):
        raise TermCount(hi)

    monkeypatch.setattr(engine, "_split", spy)
    with pytest.raises(TermCount) as caught:
        atan_series_split(p, q, digits, num)
    monkeypatch.undo()
    return caught.value.args[0]


def exact_floor(p: int, q: int, digits: int) -> int:
    """The floor of 10**digits times the partial sum of Euler's series that
    atan_series_split(p, q, digits) approximates, from the oracle, with the
    least term count passing the tail test, stepped up one term at a time."""
    t = Fraction(p, q)
    p, q = t.numerator, t.denominator
    a2, r = p * p, p * p + q * q
    n, x, y = 1, 10 ** (digits + engine.SPLIT_GUARD) * abs(p) ** 3, q * r
    while x >= y:
        n, x, y = n + 1, x * a2, y * r
    return euler_partial_floor(p, q, n, digits)


@contextlib.contextmanager
def cap_spy(monkeypatch):
    """Counts the ranges the product tree floors to their room."""
    fired = []
    cap = engine._cap

    def counted(k, values):
        fired.append(k)
        return cap(k, values)

    monkeypatch.setattr(engine, "_cap", counted)
    yield fired
    monkeypatch.undo()


def test_split_equals_naive_partial_sum(monkeypatch):
    # the tree must produce the floor of the exact partial sum of Euler's
    # series with the least term count that passes the tail test: bit for
    # bit where no range was capped, and within one unit where one was
    rng = random.Random(83)
    capped = 0
    for _ in range(20):
        q = rng.randint(2, 60)
        p = rng.randint(1, q) * rng.choice((1, -1))
        g = math.gcd(p, q)
        p, q = p // g, q // g
        digits = rng.randint(5, 40)
        n = 1
        while not euler_tail_holds(p, q, n, digits + engine.SPLIT_GUARD):
            n += 1
        r = p * p + q * q
        term, exact = Fraction(p * q, r), Fraction(0)
        for k in range(n):
            exact += term
            term *= Fraction(2 * (k + 1) * p * p, (2 * k + 3) * r)
        expect = exact * 10**digits
        expect = expect.numerator // expect.denominator
        with cap_spy(monkeypatch) as fired:
            got = atan_series_split(p, q, digits)
        if fired:
            capped += 1
            assert abs(got - expect) <= 1, (p, q, digits)
        else:
            assert got == expect, (p, q, digits)
    # both contracts are exercised
    assert 0 < capped < 20


def euler_leaves(a: int, b: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """(P_k, Q_k) of the tree's leaves k in [lo, hi); T_k = P_k."""
    r = a * a + b * b
    return [
        (a * b, r) if k == 0 else (2 * k * a * a, (2 * k + 1) * r) for k in range(lo, hi)
    ]


def test_exact_ranges_keep_their_ratios():
    # leaf blocks and gcd-reduced combines leave every exact range with
    # T/Q = N/D and P/Q = Prod_k P_k / D, where D = Prod_k Q_k and
    # N = Sum_k Prod_{l <= k} P_l * Prod_{l > k} Q_l: on short arguments
    # (int subtrees under Decimal) and on a 70-digit one whose Decimal
    # ranges combine past LEAF_DIGITS
    block = engine.BLOCK
    for a, b in [(1, 5), (17, 31), (10**70 - 3, 10**70)]:
        for lo in (0, 7, 3 * block):
            for width in (1, block, block + 1, 5 * block + 3):
                hi = lo + width
                leaves = euler_leaves(a, b, lo, hi)
                later = [1]  # later[j] = Prod of the last j Q_k
                for _, qk in reversed(leaves):
                    later.append(later[-1] * qk)
                prod, total = 1, 0
                for k, (pk, _) in enumerate(leaves):
                    prod *= pk
                    total += prod * later[width - 1 - k]
                den = later[width]
                for num in (int, Decimal):
                    with decimal.localcontext(engine.EXACT):
                        p, q, t = engine._split(a, b, lo, hi, num)
                    assert all(isinstance(x, num) for x in (p, q, t))
                    p, q, t = int(p), int(q), int(t)
                    assert t * den == total * q, (a, b, lo, hi, num)
                    assert p * den == prod * q, (a, b, lo, hi, num)
                # on ints, past one block, the reduced combines give a Q
                # below the product of the leaves' Q_k
                q = engine._split(a, b, lo, hi)[1]
                assert q < den if width > block else q == den, (a, b, lo, hi)


def test_single_term_range_is_floored_to_its_room():
    # a one-term range over its room is built whole and floored to one unit
    # (a bit on ints, a digit on Decimal), not split again
    for a, b, k in [(1, 5, 0), (1, 5, 40), (17, 31, 3), (10**70 - 3, 10**70, 9)]:
        exact = engine._split(a, b, k, k + 1)
        for num in (int, Decimal):
            with decimal.localcontext(engine.EXACT):
                p, q, t = engine._split(a, b, k, k + 1, num, 1)
            assert isinstance(q, num) and engine._length(q) == 1, (a, b, k, num)
            shift = engine._length(num(exact[1])) - 1
            assert (p, q, t) == engine._cap(shift, tuple(map(num, exact)))


def test_capped_tree_within_a_unit_on_both_types(monkeypatch):
    # 70-digit arguments near +-1 and bit-burst chunks a/10**m: the capped
    # tree stays within one unit of the exact floor of the partial sum on
    # ints and on Decimal, and the cap fires in at least a third of the cases
    rng = random.Random(127)
    cases = []
    for _ in range(8):
        q = rng.randint(10**69, 10**70)
        cases.append((q - rng.randint(1, 10**68), q))
        m = rng.randint(1, 70)
        cases.append((rng.randint(1, 10**m - 1), 10**m))
    capped = 0
    for p, q in cases:
        p *= rng.choice((1, -1))
        digits = rng.randint(20, 150)
        exact = exact_floor(p, q, digits)
        fired_any = False
        for num in (int, Decimal):
            with cap_spy(monkeypatch) as fired:
                got = atan_series_split(p, q, digits, num)
            fired_any = fired_any or bool(fired)
            assert isinstance(got, num) and got == int(got)
            assert abs(got - exact) <= 1, (p, q, digits, num)
        capped += fired_any
    assert 3 * capped >= len(cases), capped


def test_term_count_is_minimal(monkeypatch):
    cases = [(1, 2, 20), (3, 79, 50), (1, 239, 100), (17, 31, 3172), (-17, 31, 30010)]
    cases += [(1, 1, 30), (-1, 1, 300), (10**69 - 1, 10**69, 200)]
    rng = random.Random(89)
    while len(cases) < 40:
        q = rng.randint(2, 10 ** rng.choice((1, 3, 70)))
        p = rng.randint(1, q) * rng.choice((1, -1))
        cases.append((p, q, rng.randint(1, 400)))
    for p, q, d in cases:
        n = term_count(monkeypatch, p, q, d)
        decimals = d + engine.SPLIT_GUARD
        assert euler_tail_holds(p, q, n, decimals), (p, q, d)
        assert n == 1 or not euler_tail_holds(p, q, n - 1, decimals), (p, q, d)
        assert term_count(monkeypatch, p, q, d, Decimal) == n


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


def reference_decimals(count: int) -> str:
    """pi to `count` truncated decimals from the benchmark's Chudnovsky run."""
    path = Path(__file__).resolve().parent.parent / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return "3." + reference.pi_decimals(count)


def test_pi_digits_from_surd_identities():
    # the paper's identities at the golden mean, at Lucas numbers and at a
    # quadratic irrationality give proved digits of pi
    truth = reference_decimals(300)
    idents = [golden_family(kind, 1) for kind in ("odd", "even", "only_lucas")]
    idents += [golden_family(kind, 0) for kind in ("lucas_minus", "lucas_plus")]
    idents += [quad_reduce(2, -1, surd_normalize(1, 1, 2)), half_turn(Fraction(1, 2))[0]]
    idents += [diff_identity(surd_normalize(3, -1, 2))]
    for ident in idents:
        r = pi_digits(ident, 300)
        assert r.digits == truth and not r.unrounded, ident
    # past k = 0 the half-turns of the Lucas pairs cancel pi from the right side
    for kind in ("lucas_minus", "lucas_plus"):
        with pytest.raises(DegenerateIdentityError):
            pi_digits(golden_family(kind, 1), 300)


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

    def counted(p, q, digits, num):
        calls.append((num, digits))
        return atan_series_split(p, q, digits, num)

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
        exact = exact_floor(p, q, digits)
        d = atan_series_split(p, q, digits, Decimal)
        assert isinstance(d, Decimal) and d == d.to_integral_value()
        assert abs(d - exact) <= 1, (p, q, digits)
    assert atan_series_split(0, 5, 40, Decimal) == 0
    # a single term past the leaf size is still converted
    for p, q in ((1, 10**700 + 1), (-(3**1500), 2**2400)):
        assert abs(atan_series_split(p, q, 50, Decimal) - exact_floor(p, q, 50)) <= 1


def test_decimal_runs_in_an_exact_context(monkeypatch):
    # machin_pair(200, 3) carries a 70-digit argument near -0.9, cut into
    # chunks, and the golden identity a surd with a remainder; both run on
    # forced Decimal trees
    euler = pi_digits(EULER, 300).digits
    monkeypatch.setattr(engine, "DECIMAL_DIGITS", 0)
    contexts, kinds = [], set()
    real = engine.localcontext

    @contextlib.contextmanager
    def spied(ctx):
        with real(ctx) as c:
            yield c
            contexts.append(c)

    def typed(p, q, digits, num):
        kinds.add(num)
        return atan_series_split(p, q, digits, num)

    monkeypatch.setattr(engine, "localcontext", spied)
    monkeypatch.setattr(engine, "atan_series_split", typed)
    outer = decimal.getcontext()
    outer.clear_flags()
    for ident in (machin_pair(200, Fraction(3)), golden_family("even", 1)):
        r = pi_digits(ident, 300)
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
    # a surd term is scored too
    score = lehmer_measure(golden_family("odd", 1))
    assert score == pytest.approx(3.690893929883273, rel=1e-12, abs=0)


def test_lehmer_measure_big_integers():
    # huge exact arguments must not overflow the log
    big = ident([(1, Fraction(1, 10**400))], Fraction(1))
    assert lehmer_measure(big) == pytest.approx(1 / 400, abs=1e-15)


def test_lehmer_measure_surd_and_near_one_scores():
    # each term scored against floor(|t'|*10^900) at 120 digits, and against
    # the recorded score
    near_one = ident([(1, Fraction(10**20, 10**20 + 1))], Fraction(1, 4))
    cases = [
        (golden_family("odd", 1), 3.690893929883273),
        (golden_family("even", 5), 71.26738675220194),
        (golden_family("lucas_minus", 3), 1.544620938367051),
        (golden_family("lucas_plus", 800), 5.980170425198328e-3),
        (quad_reduce(0, -2, Surd(0, 1, 2)), 9.759676892864531),
        (near_one, 2.302585092994046e20),
    ]
    scale = 10**900
    for identity, recorded in cases:
        with decimal.localcontext() as ctx:
            ctx.prec = 120
            want = Decimal(0)
            for term in identity.terms:
                t = abs(NormalAngle(term.arg, 0).canonical().t)
                want += 1 / (Decimal(scale) / Decimal(_floor(t, scale))).log10()
        got = lehmer_measure(identity)
        assert got == pytest.approx(float(want), rel=1e-12, abs=0), identity
        assert got == pytest.approx(recorded, rel=1e-12, abs=0), identity
    # |t'| within float range of 1: the score is past float range
    assert lehmer_measure(golden_family("odd", 800)) == math.inf


def test_number_type_follows_the_working_decimals(monkeypatch):
    # a run at S = D + GUARD above DECIMAL_DIGITS sums every chunk on
    # Decimal, and a run at or below it on ints, whatever its trees
    monkeypatch.setattr(engine, "DECIMAL_DIGITS", 400)
    kinds = []

    def typed(p, q, digits, num):
        kinds.append(num)
        return atan_series_split(p, q, digits, num)

    monkeypatch.setattr(engine, "atan_series_split", typed)
    truth = reference_decimals(320)
    for identity in (MACHIN, golden_family("even", 1), machin_pair(200, Fraction(3))):
        for digits, kind in ((300, int), (320, Decimal)):
            kinds.clear()
            r = pi_digits(identity, digits)
            assert r.digits == truth[: digits + 2] and not r.unrounded, identity
            assert kinds and all(num is kind for num in kinds), (identity, digits)
