"""The coupled u/v tangent-numerator pair and the golden-mean powers.

The pair (u_n(x), v_n(x)) is the numerator and denominator data of n-fold
arctangent addition, u_n + i*v_n = (x + i)^n; ``uv_coefficients`` gives the
same polynomials as binomial coefficient lists.

``uv_pair`` is one power of ``values._gauss_pow``, the package's Gaussian
squaring loop, on the integer form of x.

Lucas numbers and the golden-mean powers feed the golden-ratio
identities: phi^m = (L_m + F_m*sqrt(5)) / 2, with F_m carried as the
sqrt(5) part of ``phi_power(m)``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import InvalidArgumentError, check_int
from .values import Value, _from_ints, _gauss_pow, _ints, _Record, _set, as_value, surd_normalize

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


def uv_coefficients(n: int) -> tuple[list[int], list[int]]:
    """Integer coefficient lists of u_n and v_n, index = power of x: in
    (x + i)^n, x^j carries C(n, j) * i^(n-j), real for even n - j.  An n
    that cannot be a list length is refused before anything is built."""
    check_int(n, "n", 0)
    if n >= sys.maxsize:
        raise InvalidArgumentError("n must be less than sys.maxsize")
    u, v = [0] * (n + 1), [0] * (n + 1)
    for j in range(n + 1):
        m = n - j
        (v if m & 1 else u)[j] = (-1) ** (m // 2) * math.comb(n, j)
    return u, v


def _lucas_fibonacci(m: int) -> tuple[int, int]:
    # kept beside _gauss_pow: Surd(1/2, 1/2, 5) ** m carries 2^m through the
    # power, then one gcd and the divisions by it, 0.22 s to 5 ms at
    # m = 2*10^5 (Python 3.11, 2-vCPU Xeon)
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

