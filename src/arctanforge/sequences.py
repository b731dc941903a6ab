"""Second-order linear recurrences and the coupled u/v tangent-numerator pair.

``w_eval`` evaluates the generic order-2 sequence with characteristic
polynomial t^2 - p*t + q.  The pair (u_n(x), v_n(x)) both satisfy that
recurrence with p = 2x and q = 1 + x^2; they are the numerator and
denominator data of n-fold arctangent addition, u_n + i*v_n = (x + i)^n,
which ``uv_pair`` powers by squaring; the binomial expansion (``uv_closed``)
and the generic recurrence are independent routes the tests play against it.

Lucas and Fibonacci numbers are the special case p = 1, q = -1 and feed the
golden-ratio identities: phi^m = (L_m + F_m*sqrt(5)) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .values import Surd, Value, as_value, surd_normalize

__all__ = [
    "RecurrenceSpec",
    "UVPair",
    "w_eval",
    "uv_pair",
    "uv_closed",
    "lucas",
    "fibonacci",
    "phi_power",
    "min_poly_phi_power",
]


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order-2 recurrence a_n = p*a_(n-1) - q*a_(n-2) with a_0, a_1 given."""

    alpha: Value
    beta: Value
    p: Value
    q: Value


@dataclass(frozen=True)
class UVPair:
    """(u_n(x), v_n(x)); invariant: u^2 + v^2 = (1 + x^2)^n."""

    u: Value
    v: Value
    n: int
    x: Value


def w_eval(spec: RecurrenceSpec, n: int) -> Value:
    """n-th term of the recurrence, evaluated iteratively and exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return as_value(spec.alpha)
    prev, cur = as_value(spec.alpha), as_value(spec.beta)
    p, q = as_value(spec.p), as_value(spec.q)
    for _ in range(n - 1):
        prev, cur = cur, p * cur - q * prev
    return cur


def uv_pair(n: int, x) -> UVPair:
    """(u_n, v_n) as the real and imaginary parts of (x + i)^n.

    Left-to-right binary powering: square, then multiply by x + i on each
    set bit of n, so O(log n) complex multiplications.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = as_value(x)
    u, v = Fraction(1), Fraction(0)
    for bit in bin(n)[2:]:
        u, v = u * u - v * v, 2 * u * v
        if bit == "1":
            u, v = x * u - v, u + x * v
    return UVPair(u, v, n, x)


def uv_coefficients(n: int) -> tuple[list[int], list[int]]:
    """Integer coefficient lists of u_n and v_n, index = power of x: in
    (x + i)^n, x^j carries C(n, j) * i^(n-j), real for even n - j."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    u, v = [0] * (n + 1), [0] * (n + 1)
    for j in range(n + 1):
        m = n - j
        (v if m & 1 else u)[j] = (-1) ** (m // 2) * math.comb(n, j)
    return u, v


def uv_closed(n: int, x) -> UVPair:
    """(u_n, v_n) by evaluating the binomial expansion at x (Horner)."""
    cu, cv = uv_coefficients(n)
    x = as_value(x)
    u, v = Fraction(0), Fraction(0)
    for a, b in zip(reversed(cu), reversed(cv)):
        u, v = u * x + a, v * x + b
    return UVPair(u, v, n, x)


_LUCAS = RecurrenceSpec(Fraction(2), Fraction(1), Fraction(1), Fraction(-1))
_FIBONACCI = RecurrenceSpec(Fraction(0), Fraction(1), Fraction(1), Fraction(-1))


def lucas(m: int) -> int:
    """Lucas number L_m (2, 1, 3, 4, 7, 11, ...)."""
    return int(w_eval(_LUCAS, m))


def fibonacci(m: int) -> int:
    """Fibonacci number F_m (0, 1, 1, 2, 3, 5, ...)."""
    return int(w_eval(_FIBONACCI, m))


def phi_power(m: int) -> Value:
    """Exact m-th power of the golden mean: (L_m + F_m*sqrt(5)) / 2.

    Returns a Surd for m >= 1 and Fraction(1) for m = 0.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return surd_normalize(Fraction(lucas(m), 2), Fraction(fibonacci(m), 2), 5)


def min_poly_phi_power(m: int) -> tuple[int, int]:
    """Coefficients (h, k) of the minimal polynomial t^2 - h*t + k of phi^m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return lucas(m), (-1) ** m
