"""The coupled u/v tangent-numerator pair and the golden-mean powers.

The pair (u_n(x), v_n(x)) is the numerator and denominator data of n-fold
arctangent addition, u_n + i*v_n = (x + i)^n; ``uv_coefficients`` gives the
same polynomials as binomial coefficient lists.

One squaring loop, ``_gauss_pow``, raises re + i*im to the n-th power with
no gcd, re and im being int pairs (x, y) for x + y*sqrt(d), y = 0 for a
rational; ``uv_pair`` and ``NormalAngle`` use it and its parts.  For an
angle, with re > 0, ``_turn`` turns the pair by quarter turns after each
product until -re < im <= re, and h counts them.  That
keeps j*arg(z) = arg(pair) + h*pi/2 exact, with no 2*pi lost: squaring an
argument in (-pi/4, pi/4] gives one in (-pi/2, pi/2], and one factor z,
whose argument lies in (-pi/2, pi/2), leaves it inside (-pi, pi), from
where at most two quarter turns bring it back.

Lucas numbers and the golden-mean powers feed the golden-ratio
identities: phi^m = (L_m + F_m*sqrt(5)) / 2, with F_m carried as the
sqrt(5) part of ``phi_power(m)``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import check_int
from .values import Value, _from_ints, _ints, _mul, _Record, _set, _sign, as_value, surd_normalize

__all__ = [
    "uv_pair",
    "lucas",
    "phi_power",
]


class UVPair(_Record):
    """(u_n(x), v_n(x)); invariant: u^2 + v^2 = (1 + x^2)^n."""

    __slots__ = ("u", "v", "n", "x")

    def __init__(self, u: Value, v: Value, n: int, x: Value):
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "n", n)
        _set(self, "x", x)


def uv_pair(n: int, x) -> UVPair:
    """(u_n, v_n) as the real and imaginary parts of (x + i)^n, which is
    ((A + B*sqrt(d)) + iC)^n / C^n for x = (A + B*sqrt(d))/C: one integer
    power and one reduction per part."""
    check_int(n, "n", 0)
    x = as_value(x, "x")
    A, B, C, d = _ints(x)
    u, v, _ = _gauss_pow((A, B), (C, 0), n, d, turn=False)
    return UVPair(_from_ints(*u, C**n, d), _from_ints(*v, C**n, d), n, x)


def _gauss_pow(re, im, n: int, d: int, turn: bool = True):
    """(a, b, h) with (re + i*im)^n = i^h * (a + i*b), all over Z[sqrt(d)],
    by left-to-right squaring; h = 0 without `turn`.  With `turn` and
    re > 0, -a < b <= a and n*arg(re + i*im) = arg(a + i*b) + h*pi/2."""
    a, b, h = (1, 0), (0, 0), 0
    for bit in bin(n)[2:]:
        (x, y), (u, v) = a, b  # (a + ib)^2 = (a + b)(a - b) + 2iab
        a, (u, v) = _mul((x + u, y + v), (x - u, y - v), d), _mul(a, b, d)
        b, h = (2 * u, 2 * v), 2 * h
        if bit == "1":
            a, b = _gauss_mul(a, b, re, im, d)
        if turn:
            a, b, k = _turn(a, b, d)
            h += k
    return a, b, h


def _gauss_mul(a, b, c, e, d: int):
    """(a + ib)(c + ie) = (ac - be) + i(ae + bc)."""
    (x, y), (u, v), (p, q), (r, s) = _mul(a, c, d), _mul(b, e, d), _mul(a, e, d), _mul(b, c, d)
    return (x - u, y - v), (p + r, q + s)


def _turn(a, b, d: int):
    """(a', b', k) with a + ib = i^k * (a' + ib') != 0, -a' < b' <= a'."""
    k = 0
    while not (_sign(a[0] + b[0], a[1] + b[1], d) > 0 and _sign(a[0] - b[0], a[1] - b[1], d) >= 0):
        if _sign(*b, d) > 0:  # clockwise: times -i
            a, b, k = b, (-a[0], -a[1]), k + 1
        else:  # counterclockwise: times i
            a, b, k = (-b[0], -b[1]), a, k - 1
    return a, b, k


def uv_coefficients(n: int) -> tuple[list[int], list[int]]:
    """Integer coefficient lists of u_n and v_n, index = power of x: in
    (x + i)^n, x^j carries C(n, j) * i^(n-j), real for even n - j."""
    check_int(n, "n", 0)
    u, v = [0] * (n + 1), [0] * (n + 1)
    for j in range(n + 1):
        m = n - j
        (v if m & 1 else u)[j] = (-1) ** (m // 2) * math.comb(n, j)
    return u, v


def _lucas_fibonacci(m: int) -> tuple[int, int]:
    # (L_m, F_m) with phi^j = (L_j + F_j*sqrt(5))/2, by squaring: phi^(2j)
    # gives (L^2 + 5F^2)/2 and L*F, phi^(j+1) (L + 5F)/2 and (L + F)/2
    check_int(m, "m", 0)
    L, F = 2, 0
    for bit in bin(m)[2:]:
        L, F = (L * L + 5 * F * F) // 2, L * F
        if bit == "1":
            L, F = (L + 5 * F) // 2, (L + F) // 2
    return L, F


def lucas(m: int) -> int:
    """Lucas number L_m (2, 1, 3, 4, 7, 11, ...)."""
    return _lucas_fibonacci(m)[0]


def phi_power(m: int) -> Value:
    """Exact m-th power of the golden mean: (L_m + F_m*sqrt(5)) / 2.

    Returns a Surd for m >= 1 and Fraction(1) for m = 0.  For m >= 1 its
    minimal polynomial is t^2 - L_m*t + (-1)^m.
    """
    L, F = _lucas_fibonacci(m)
    return surd_normalize(Fraction(L, 2), Fraction(F, 2), 5)

