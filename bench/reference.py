"""Independent pi reference for checking digit runs.

Integer Chudnovsky series by binary splitting, with `math.isqrt` for
sqrt(10005).  It shares no code with the package, so a digit string that
matches it was not checked against the package's own arithmetic.  Decimal
text is produced in chunks below the interpreter's int-to-str limit, so the
limit stays at its default.
"""

from __future__ import annotations

import math

_C3_OVER_24 = 640320**3 // 24
_CHUNK = 2000  # digits per str() call, well below the 4300-digit default limit
_GUARD = 30


def _split(a: int, b: int) -> tuple[int, int, int]:
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _C3_OVER_24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    m = (a + b) // 2
    p1, q1, t1 = _split(a, m)
    p2, q2, t2 = _split(m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _to_decimal(n: int, width: int) -> str:
    """Zero-padded decimal text of 0 <= n < 10**width, by divide and conquer."""
    if width <= _CHUNK:
        return str(n).zfill(width)
    low = width // 2
    hi, lo = divmod(n, 10**low)
    return _to_decimal(hi, width - low) + _to_decimal(lo, low)


def pi_decimals(count: int) -> str:
    """The first `count` decimals of pi after "3.", truncated."""
    scale = count + _GUARD
    terms = scale // 14 + 2  # each Chudnovsky term adds about 14.18 digits
    _, q, t = _split(0, terms)
    one = 10**scale
    root = math.isqrt(10005 * one * one)
    pi_scaled = q * 426880 * root // t
    text = _to_decimal(pi_scaled - 3 * one, scale)
    return text[:count]
