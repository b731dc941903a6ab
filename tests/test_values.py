"""Exact value layer: rationals, quadratic surds, square roots."""

import math
import operator
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from arctanforge import (
    IncompatibleFieldError,
    InvalidArgumentError,
    InvalidRadicandError,
    Surd,
    UnsupportedRadicalError,
    phi_power,
    surd_normalize,
    value_sign,
    value_sqrt,
)
from arctanforge.values import _int_text, _is_prime, _squarefree_decompose, _text_int, as_value
from oracles import surd_inverse, surd_product, surd_sign


def rnd_fraction(rng, span=50):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def rnd_surd(rng, d=5):
    while True:
        b = rnd_fraction(rng)
        if b != 0:
            return Surd(rnd_fraction(rng), b, d)


def test_surd_constructor_validates():
    with pytest.raises(InvalidRadicandError):
        Surd(1, 1, 8)  # not squarefree
    with pytest.raises(InvalidRadicandError):
        Surd(1, 1, 1)
    with pytest.raises(InvalidRadicandError):
        Surd(1, 1, -2)
    with pytest.raises(InvalidRadicandError):
        Surd(1, 0, 2)  # rational in disguise
    with pytest.raises(InvalidRadicandError):
        Surd(0, 1, 4)  # a perfect square
    with pytest.raises(InvalidRadicandError):
        Surd(1, 0, 5)
    # radicands past the int-str limit still give a typed error, not the
    # interpreter's ValueError from formatting the message
    for make in (
        lambda: Surd(1, 1, -(10**5000)),
        lambda: Surd(1, 1, 4 * 10**5000),
        lambda: surd_normalize(1, 1, -(10**5000)),
    ):
        with pytest.raises(InvalidRadicandError):
            make()


def test_radicand_must_be_an_int():
    for make in (lambda d: Surd(1, 1, d), lambda d: surd_normalize(1, 1, d)):
        make(2)
        for d in (2.5, 2.0, True, "2", None, Decimal(2)):
            with pytest.raises(InvalidArgumentError, match="^d must be an int"):
                make(d)


def test_surd_normalize_extracts_squares():
    assert surd_normalize(0, 1, 8) == Surd(0, 2, 2)
    assert surd_normalize(1, Fraction(1, 2), 12) == Surd(1, 1, 3)
    assert surd_normalize(3, 0, 7) == Fraction(3)
    assert surd_normalize(1, 2, 9) == Fraction(7)  # 1 + 2*3
    assert surd_normalize(0, 1, 1) == Fraction(1)
    with pytest.raises(InvalidRadicandError):
        surd_normalize(0, 1, 0)
    with pytest.raises(InvalidRadicandError):
        surd_normalize(0, 1, -3)


def test_squarefree_decompose_exact_below_bound():
    # radicands s*s*core built from known primes, so the answer is known
    # without factoring; every product stays below 10^18
    rng = random.Random(11)
    small = [2, 3, 5, 7, 11, 13, 97, 9973]
    large = [10007, 10009, 10037, 100003, 999983, 1000003, 999999937, 10**12 + 39]
    for _ in range(400):
        core = 1
        for p in rng.sample(small, rng.randint(0, 3)) + rng.sample(large, rng.randint(0, 3)):
            if core * p < 10**18:
                core *= p
        s = rng.choice([1, 2, 6, 97, 10007, 999983, 10**6 - 1, 10**6 + 3, 10**9 - 1])
        while s * s * core >= 10**18:
            s //= 2
        assert _squarefree_decompose(s * s * core) == (s, core), (s, core)


def test_squarefree_decompose_primes_near_trillion_are_quick():
    # a prime cofactor is proved after trial division to 10^4, not 10^6
    primes = [p for p in range(10**12 + 1, 10**12 + 3000, 2) if _is_prime(p)][:50]
    assert len(primes) == 50
    start = time.perf_counter()
    for p in primes:
        assert _squarefree_decompose(p) == (1, p)
    assert time.perf_counter() - start < 0.5


def test_squarefree_decompose_large_radicands():
    p = 10**24 + 7  # prime, proved by Miller-Rabin with 13 bases
    assert _squarefree_decompose(p) == (1, p)
    assert _squarefree_decompose(18 * p) == (3, 2 * p)
    assert _squarefree_decompose(5 * p * p) == (p, 5)
    # below 10^18 every cofactor is certified: products of primes above the
    # trial bound, and 149491 * 747451 * 34233211, a strong pseudoprime to
    # the bases 2 to 23
    assert _squarefree_decompose(10007 * 100000007) == (1, 10007 * 100000007)
    assert _squarefree_decompose(1000003 * 999999937) == (1, 1000003 * 999999937)
    assert _squarefree_decompose(6 * 1000003**2) == (1000003, 6)
    assert _squarefree_decompose(3825123056546413051) == (1, 3825123056546413051)
    # composites whose factors all exceed the trial bound cannot be certified:
    # (10^6 + 3) * (10^12 + 39), and 10^30 + 57, which is above the
    # Miller-Rabin limit
    for d in ((10**6 + 3) * (10**12 + 39), 10**30 + 57):
        with pytest.raises(InvalidRadicandError, match="cannot certify"):
            surd_normalize(0, 1, d)


def test_as_value_coercions():
    assert as_value(3) == Fraction(3)
    assert isinstance(as_value(Fraction(1, 2)), Fraction)
    s = Surd(1, 1, 2)
    assert as_value(s) is s
    with pytest.raises(InvalidArgumentError):
        as_value(0.5)


def test_surd_powers_by_squaring():
    rng = random.Random(131)
    for _ in range(40):
        x = rnd_surd(rng, rng.choice((2, 3, 5, 7)))
        n = rng.randint(1, 300)
        assert x**n == x ** (n - 1) * x, (x, n)
        assert x ** (-n) * x**n == 1
    assert Surd(1, 1, 2) ** 0 == 1
    assert Surd(0, 1, 2) ** 2 == 2  # a rational power
    start = time.perf_counter()
    Surd(1, 1, 2) ** 16000
    assert time.perf_counter() - start < 0.1


def test_field_arithmetic_random():
    rng = random.Random(101)
    for _ in range(200):
        x = rnd_surd(rng)
        y = rnd_surd(rng)
        for op in ("add", "sub", "mul"):
            got = getattr(x, f"__{op}__")(y)
            want = getattr(float(x), f"__{op}__")(float(y))
            assert math.isclose(float(got), want, rel_tol=1e-9, abs_tol=1e-9)
        if value_sign(y) != 0:
            got = x / y
            assert math.isclose(
                float(got), float(x) / float(y), rel_tol=1e-9, abs_tol=1e-9
            )


def test_mixed_scalar_arithmetic():
    s = Surd(Fraction(1, 2), Fraction(3, 2), 5)
    assert 2 * s == Surd(1, 3, 5)
    assert s + 1 == Surd(Fraction(3, 2), Fraction(3, 2), 5)
    assert 1 - s == Surd(Fraction(1, 2), Fraction(-3, 2), 5)
    assert s - Fraction(1, 2) == Surd(0, Fraction(3, 2), 5)
    # dividing a rational by a surd rationalizes the denominator
    assert 1 / Surd(1, 1, 2) == Surd(-1, 1, 2)
    assert +s is s
    with pytest.raises(ZeroDivisionError):
        s / 0
    # a float is not exact: every operator declines it in both orders
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(s, 0.5)
        with pytest.raises(TypeError):
            op(0.5, s)
    with pytest.raises(TypeError):
        s**1.5


def test_surd_plus_conjugate_is_rational():
    rng = random.Random(7)
    for _ in range(50):
        x = rnd_surd(rng, d=2)
        assert isinstance(x + x.conjugate(), Fraction)
        assert isinstance(x * x.conjugate(), Fraction)


def test_inverse_and_pow():
    x = Surd(2, 3, 2)
    assert x * x.inverse() == Fraction(1)
    assert x**0 == Fraction(1)
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()


def test_demotion_to_fraction():
    # arithmetic that kills the radical must not return a fake surd
    x = Surd(1, 2, 5)
    y = Surd(4, -2, 5)
    assert x + y == Fraction(5)
    assert isinstance(x + y, Fraction)
    assert isinstance(x - x, Fraction)
    assert x * 0 == 0 and isinstance(x * 0, Fraction)


def primorial_radicand() -> int:
    """The product of the primes up to 10243: squarefree, certified by trial
    division, and about 4400 digits, past the 4300-digit str() limit."""
    sieve = bytearray([1]) * 10244
    sieve[:2] = b"\0\0"
    for n in range(2, 102):
        if sieve[n]:
            sieve[n * n :: n] = bytes(len(sieve[n * n :: n]))
    return math.prod(n for n, prime in enumerate(sieve) if prime)


def test_incompatible_fields_rejected():
    with pytest.raises(IncompatibleFieldError):
        Surd(0, 1, 2) + Surd(0, 1, 3)
    with pytest.raises(IncompatibleFieldError):
        Surd(0, 1, 2) * Surd(0, 1, 5)
    # radicands past the str() limit still give the typed error, with their
    # full decimal text in the message
    d = primorial_radicand()
    assert len(_int_text(d)) > 4300
    with pytest.raises(IncompatibleFieldError, match=_int_text(d // 2)[-20:]):
        Surd(0, 1, d) + Surd(0, 1, d // 2)


def test_sign_is_exact():
    rng = random.Random(55)
    for _ in range(300):
        x = rnd_surd(rng, d=rng.choice([2, 3, 5, 29]))
        fx = float(x)
        if abs(fx) > 1e-6:
            assert value_sign(x) == (1 if fx > 0 else -1)
    # a case where naive floating evaluation is close to zero
    tight = Surd(665857, -470832, 2)  # 665857 - 470832*sqrt(2) ~ 3.8e-7
    assert value_sign(tight) == 1
    assert value_sign(-tight) == -1


def test_comparisons():
    assert Surd(0, 1, 2) < Fraction(3, 2)
    assert Surd(0, 1, 2) > 1
    assert Surd(-1, 1, 2) < Surd(0, 1, 2)
    assert Surd(0, 1, 2) <= Surd(0, 1, 2) <= 2
    assert Surd(0, 1, 2) >= Surd(0, 1, 2) >= 1
    assert not Surd(0, 1, 2) <= 1 and not Surd(0, 1, 2) >= 2
    assert sorted([Surd(0, 1, 2), Fraction(1), Surd(0, 1, 2) - 1]) == [
        Surd(0, 1, 2) - 1,
        Fraction(1),
        Surd(0, 1, 2),
    ]


def test_value_sqrt_rational():
    assert value_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert value_sqrt(Fraction(0)) == Fraction(0)
    assert value_sqrt(Fraction(2)) == Surd(0, 1, 2)
    assert value_sqrt(Fraction(5, 4)) == Surd(0, Fraction(1, 2), 5)
    assert value_sqrt(Fraction(8)) == Surd(0, 2, 2)
    # numerator and denominator are factored apart; their product is above 10^12
    assert value_sqrt(Fraction(10007, 100000007)) == Surd(
        0, Fraction(1, 100000007), 10007 * 100000007
    )
    assert value_sqrt(Fraction(12, 50)) == Surd(0, Fraction(1, 5), 6)
    assert value_sqrt(Fraction(3, 8)) == Surd(0, Fraction(1, 4), 6)
    with pytest.raises(UnsupportedRadicalError):
        value_sqrt(Fraction(-1))


def test_value_sqrt_surd():
    # (1 + sqrt(2))^2 = 3 + 2*sqrt(2)
    assert value_sqrt(Surd(3, 2, 2)) == Surd(1, 1, 2)
    # (2 - sqrt(5))^2 = 9 - 4*sqrt(5); the nonnegative root is returned
    root = value_sqrt(Surd(9, -4, 5))
    assert root * root == Surd(9, -4, 5)
    assert value_sign(root) >= 0
    with pytest.raises(UnsupportedRadicalError):
        value_sqrt(Surd(1, 1, 2))  # sqrt(1 + sqrt(2)) leaves the field
    d = primorial_radicand()
    with pytest.raises(UnsupportedRadicalError, match=_int_text(d)[-20:]):
        value_sqrt(Surd(1, 1, d))


def test_value_sqrt_squares_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        x = rnd_surd(rng, d=rng.choice([2, 3, 5]))
        sq = x * x
        root = value_sqrt(sq)
        assert root * root == sq
        assert value_sign(root) >= 0


def _pell_unit(d: int) -> tuple[int, int]:
    # (A, B) with A*A - d*B*B = +-1 and A above 300 digits: a power of the
    # fundamental unit of Z[sqrt(d)]
    x, y = {2: (1, 1), 3: (2, 1), 5: (2, 1), 6: (5, 2), 7: (8, 3)}[d]
    A, B = x, y
    while A < 10**300:
        A, B = A * x + d * B * y, A * y + B * x
    assert abs(A * A - d * B * B) == 1
    return A, B


def test_integer_form_matches_fraction_oracles():
    rng = random.Random(2024)
    for d in (2, 3, 5, 6, 7):
        A, B = _pell_unit(d)
        tiny = Fraction(1, 10**700)  # far below |A - B*sqrt(d)| ~ 10**-300
        pell = [
            Surd(A, -B, d),
            Surd(-A, B, d),
            Surd(Fraction(A, 3), Fraction(-B, 3), d),
            Surd(Fraction(-A, 11) + tiny, Fraction(B, 11), d),  # unequal denominators
            Surd(Fraction(A, 11) - tiny, Fraction(-B, 11), d),
            Surd(A, B, d),
        ]
        mixed = []
        while len(mixed) < 40:
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**4))
            if a.denominator != b.denominator:
                mixed.append(Surd(a, b, d))
        cases = pell + mixed
        for x in cases:
            assert x.sign() == value_sign(x) == surd_sign(x)
            assert x.inverse() == surd_inverse(x)
        for x in cases:
            # Pell pairs include x times its conjugate, which is rational
            for y in pell + rng.sample(mixed, 5):
                assert x * y == surd_product(x, y)
        for x in pell[:3] + mixed[:10]:
            assert value_sqrt(x * x) == abs(x)
            with pytest.raises(UnsupportedRadicalError):  # sqrt(11) is not in Q(sqrt(d))
                value_sqrt(11 * x * x)


def test_str_and_float():
    s = Surd(Fraction(-1, 2), Fraction(1, 2), 5)
    assert str(s) == "surd(-1/2,1/2,5)"
    assert math.isclose(float(s), (-1 + math.sqrt(5)) / 2)
    assert float(Fraction(1, 4)) == 0.25


def test_float_does_not_cancel():
    # a and b of opposite signs: the value goes through its norm and
    # conjugate, so float() keeps its sign and digits
    with localcontext() as ctx:
        ctx.prec = 300  # p - q*sqrt(2) below cancels 130 of p's digits
        root2, root5 = Decimal(2).sqrt(), Decimal(5).sqrt()
        near = Surd(1, Fraction(-707106781186547524, 10**18), 2)
        want = 1 - Decimal("0.707106781186547524") * root2
        assert value_sign(near) == 1
        assert float(near) == pytest.approx(float(want), rel=1e-12, abs=0)  # 5.67e-19
        assert float(1 / phi_power(600)) == pytest.approx(
            float((2 / (1 + root5)) ** 600), rel=1e-12, abs=0
        )  # 4.05e-126
        # p - q*sqrt(2) at the convergents of sqrt(2), down to 1e-130
        p, q = 1, 1
        for _ in range(170):
            x = Surd(p, -q, 2)
            want = float(p - q * root2)
            assert float(x) == pytest.approx(want, rel=1e-12, abs=0), (p, q)
            p, q = p + 2 * q, p + q
    # below float range a value floors to 0.0, and above it float() raises,
    # as float(Fraction) does
    assert float(1 / phi_power(2000)) == 0.0  # 1.06e-418
    with pytest.raises(OverflowError):
        float(phi_power(2000))


def test_decimal_text_pair_round_trip():
    # sizes on both sides of the plain str()/int() chunk (4000 digits) and
    # past the interpreter's 4300-digit int/str limit
    rng = random.Random(103)
    sizes = [1, 2, 3999, 4000, 4001, 4016, 4017, 4300, 4301, 8000, 8001]
    sizes += [rng.randint(1, 20_000) for _ in range(20)]
    for size in sizes:
        text = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=size - 1))
        n = _text_int(text)
        assert _int_text(n) == text
        assert _int_text(-n) == "-" + text
        assert n % 10**9 == int(text[-9:])
        m = rng.getrandbits(size * 4)
        assert _text_int(_int_text(m)) == m
    assert _int_text(0) == "0"
    assert _text_int("000") == 0
    big = Surd(Fraction(10**5000 + 1, 3), 1, 5)
    assert str(big) == "surd(1" + "0" * 4999 + "1/3,1,5)"
