"""Second-order recurrences: u/v pairs, Lucas numbers, golden powers."""

import random
import time
from fractions import Fraction

import pytest

from arctanforge import (
    InvalidArgumentError,
    Surd,
    lucas,
    phi_power,
    uv_pair,
    value_sign,
)
from oracles import RecurrenceSpec, uv_closed, w_eval


def rnd_fraction(rng, span=30):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def test_w_eval_basics():
    # W(alpha, beta, p, q): w0=alpha, w1=beta, w_n = p*w_{n-1} - q*w_{n-2}
    fib = RecurrenceSpec(0, 1, 1, -1)
    assert [w_eval(fib, n) for n in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    luc = RecurrenceSpec(2, 1, 1, -1)
    assert [w_eval(luc, n) for n in range(8)] == [2, 1, 3, 4, 7, 11, 18, 29]
    with pytest.raises(ValueError):
        w_eval(fib, -1)


def test_uv_pair_small_values():
    x = Fraction(3)
    p = uv_pair(0, x)
    assert (p.u, p.v) == (1, 0)
    p = uv_pair(1, x)
    assert (p.u, p.v) == (3, 1)
    p = uv_pair(2, x)
    assert (p.u, p.v) == (8, 6)  # u2 = x^2-1, v2 = 2x
    p = uv_pair(7, x)
    assert Fraction(p.u - p.v, p.u + p.v) == Fraction(-278, 29)


def test_uv_closed_matches_pair():
    rng = random.Random(23)
    for n in range(31):
        for x in [Fraction(2), Fraction(-5, 3), rnd_fraction(rng), rnd_fraction(rng)]:
            cp = uv_pair(n, x)
            cl = uv_closed(n, x)
            assert (cp.u, cp.v) == (cl.u, cl.v), (n, x)
    # long powers up to n = 200: powers of two, runs of set bits, odd n
    for n in (32, 47, 63, 64, 100, 127, 128, 199, 200):
        for x in [rnd_fraction(rng), Surd(rnd_fraction(rng), rnd_fraction(rng) or 1, 7)]:
            cp = uv_pair(n, x)
            cl = uv_closed(n, x)
            assert (cp.u, cp.v) == (cl.u, cl.v), (n, x)


def test_uv_norm_identity():
    rng = random.Random(29)
    for n in range(21):
        for _ in range(10):
            x = rnd_fraction(rng)
            p = uv_pair(n, x)
            assert p.u * p.u + p.v * p.v == (1 + x * x) ** n


def test_uv_sum_and_difference_recurrences():
    # u+v and u-v are W(1, x+1, 2x, 1+x^2) and W(1, x-1, 2x, 1+x^2)
    rng = random.Random(31)
    for _ in range(10):
        x = rnd_fraction(rng)
        plus = RecurrenceSpec(1, x + 1, 2 * x, 1 + x * x)
        minus = RecurrenceSpec(1, x - 1, 2 * x, 1 + x * x)
        for n in range(21):
            p = uv_pair(n, x)
            assert p.u + p.v == w_eval(plus, n)
            assert p.u - p.v == w_eval(minus, n)


def test_uv_shift_identity():
    # matrix power: u_{n+m} = u_n u_m - v_n v_m, v_{n+m} = u_n v_m + v_n u_m
    rng = random.Random(37)
    for _ in range(20):
        x = rnd_fraction(rng)
        n, m = rng.randint(0, 12), rng.randint(0, 12)
        a, b, c = uv_pair(n, x), uv_pair(m, x), uv_pair(n + m, x)
        assert c.u == a.u * b.u - a.v * b.v
        assert c.v == a.u * b.v + a.v * b.u


def test_uv_with_surd_argument():
    x = Surd(0, 1, 2)
    p = uv_pair(2, x)
    assert p.u == Fraction(1)  # x^2 - 1 = 1
    assert p.v == Surd(0, 2, 2)
    assert p.u * p.u + p.v * p.v == (1 + x * x) ** 2


def fibonacci(m):
    # F_m, read from the sqrt(5) part F_m/2 of phi^m
    return 2 * phi_power(m).b if m else 0


def test_lucas_fibonacci_values():
    assert [lucas(m) for m in range(10)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76]
    assert [fibonacci(m) for m in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]
    luc, fib = RecurrenceSpec(2, 1, 1, -1), RecurrenceSpec(0, 1, 1, -1)
    for m in range(200):
        assert (lucas(m), fibonacci(m)) == (w_eval(luc, m), w_eval(fib, m))
    for f in (lucas, phi_power):
        with pytest.raises(InvalidArgumentError):
            f(-1)


def test_lucas_fibonacci_norm():
    for m in range(51):
        assert lucas(m) ** 2 - 5 * fibonacci(m) ** 2 == 4 * (-1) ** m


def test_phi_power_values():
    assert phi_power(0) == Fraction(1)
    assert phi_power(1) == Surd(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi_power(2) == Surd(Fraction(3, 2), Fraction(1, 2), 5)
    # multiplicativity
    for m in range(1, 15):
        assert phi_power(m) * phi_power(1) == phi_power(m + 1)


def test_phi_power_minimal_polynomial():
    for m in range(1, 21):
        h, k = lucas(m), (-1) ** m
        a = phi_power(m)
        assert value_sign(a * a - h * a + k) == 0


def test_lucas_fibonacci_by_squaring():
    start = time.perf_counter()
    big = lucas(200_000)
    assert time.perf_counter() - start < 1.0
    assert big * big - 5 * fibonacci(200_000) ** 2 == 4
    for m in (1023, 1024, 4097):
        assert lucas(m) ** 2 - 5 * fibonacci(m) ** 2 == 4 * (-1) ** m
