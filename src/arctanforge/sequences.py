"""The coupled u/v tangent-numerator pair and the golden-mean powers.

The pair (u_n(x), v_n(x)) is the numerator and denominator data of n-fold
arctangent addition, u_n + i*v_n = (x + i)^n, which ``uv_pair`` powers by
squaring; ``uv_coefficients`` gives the same polynomials as binomial
coefficient lists.

Lucas numbers and the golden-mean powers feed the golden-ratio
identities: phi^m = (L_m + F_m*sqrt(5)) / 2.  The Fibonacci numbers F_m
have no function of their own; ``phi_power(m)`` carries F_m/2 as its
sqrt(5) part.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import check_int
from .values import Value, _Record, _set, as_value, surd_normalize

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
    """(u_n, v_n) as the real and imaginary parts of (x + i)^n.

    Left-to-right binary powering: square, then multiply by x + i on each
    set bit of n, so O(log n) complex multiplications.
    """
    check_int(n, "n", 0)
    x = as_value(x, "x")
    u, v = Fraction(1), Fraction(0)
    for bit in bin(n)[2:]:
        u, v = u * u - v * v, 2 * u * v
        if bit == "1":
            u, v = x * u - v, u + x * v
    return UVPair(u, v, n, x)


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
    # (L_m, F_m) with phi^j = (L_j + F_j*sqrt(5))/2, powered by squaring as
    # in uv_pair: phi^(2j) gives (L^2 + 5F^2)/2 and L*F, phi^(j+1) gives
    # (L + 5F)/2 and (L + F)/2
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

