"""Binary-splitting pi digits from rational Machin-like identities.

arctan(p/q) = Sum_j a_j with a_0 = p/q and a_j / a_(j-1) =
-p^2 (2j-1) / (q^2 (2j+1)), a ratio of small integers, so the partial sum
over [0, N) is computed exactly as T/Q by the classic product tree:

    P(a,b) = P(a,m) * P(m,b)
    Q(a,b) = Q(a,m) * Q(m,b)
    T(a,b) = T(a,m) * Q(m,b) + P(a,m) * T(m,b)

The term count N makes the tail (|p|/q)^(2N+1)/(2N+1) < 10^-(S+10), so the
floor of T/Q * 10^S is within 2 units of arctan(p/q) * 10^S.  Summing
c_i times these floors at S = D + guard digits and dividing by rhs' gives
an integer enclosure lo < pi*10^S < hi + 1; the D truncated decimals are
proved when lo and hi + 1 agree on them, else the run is retried with a
wider guard and finally flagged ``unrounded``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateArgumentError,
    DegenerateIdentityError,
    InconsistentInputError,
    InvalidArgumentError,
    RationalOnlyError,
    ReductionRequiredError,
)
from .generator import Identity
from .odot import NormalAngle
from .values import Surd, _int_text, format_value
from .verifier import verify_exact

__all__ = [
    "DigitResult",
    "pi_digits",
    "lehmer_measure",
]

SPLIT_GUARD = 10


@dataclass(frozen=True)
class DigitResult:
    digits: str
    source: Identity
    elapsed: float
    unrounded: bool = False


def _split(p: int, q: int, a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) for the term range [a, b): the partial sum is T/Q."""
    if b - a == 1:
        if a == 0:
            return p, q, p
        pj = -p * p * (2 * a - 1)
        return pj, q * q * (2 * a + 1), pj
    m = (a + b) // 2
    p1, q1, t1 = _split(p, q, a, m)
    p2, q2, t2 = _split(p, q, m, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


def _term_count(p: int, q: int, decimals: int) -> int:
    # smallest N with (|p|/q)^(2N+1)/(2N+1) < 10^-decimals, log-estimated
    # then adjusted in exact integers (the estimate can land on either side)
    n = max(1, math.ceil(decimals / (2 * math.log10(q / abs(p)))))
    tenp = 10**decimals
    ap = abs(p)

    def tail_small(k: int) -> bool:
        return tenp * ap ** (2 * k + 1) < (2 * k + 1) * q ** (2 * k + 1)

    while not tail_small(n):
        n += 1
    while n > 1 and tail_small(n - 1):
        n -= 1
    return n


def atan_series_split(p: int, q: int, digits: int) -> int:
    """floor(arctan(p/q) * 10**digits) for |p/q| < 1, by binary splitting.

    The return value is the floor of the exact partial sum, whose distance
    from arctan(p/q) is below 10**-(digits + 10).
    """
    if q == 0:
        raise ZeroDivisionError("q must be nonzero")
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    if g > 1:
        p, q = p // g, q // g
    if p == 0:
        return 0
    if abs(p) >= q:
        raise ReductionRequiredError(
            f"|{format_value(Fraction(p, q))}| >= 1: reduce via arctan(t) ="
            " sign(t)*pi/2 - arctan(1/t)"
        )
    _, big_q, big_t = _split(p, q, 0, _term_count(p, q, digits + SPLIT_GUARD))
    return big_t * 10**digits // big_q


def _run_digits(work, rprime: Fraction, digits: int, guard: int) -> tuple[str, bool]:
    """Truncated decimals of pi and whether its integer enclosure proves them."""
    scale = digits + guard
    acc = sum(
        c * atan_series_split(t.numerator, t.denominator, scale) for c, t in work
    )
    # |acc - rprime*pi*10**scale| < spread, so lo < pi*10**scale < hi + 1
    spread = 2 * sum(abs(c) for c, _ in work)
    lo, hi = sorted(
        (acc + e) * rprime.denominator // rprime.numerator for e in (-spread, spread)
    )
    unit = 10**guard
    truncated = lo // unit
    if not 3 * 10**digits <= truncated < 4 * 10**digits:
        raise InconsistentInputError(
            "identity does not evaluate to pi at the claimed rhs"
        )
    return "3." + _int_text(truncated)[1:], truncated != (hi + 1) // unit


def pi_digits(identity: Identity, digits: int) -> DigitResult:
    """pi to `digits` truncated decimals via (sum c_i*arctan(t_i)) / rhs."""
    if digits < 1:
        raise InvalidArgumentError("digits must be positive")
    start = time.perf_counter()
    for term in identity.terms:
        if isinstance(term.arg, Surd):
            raise RationalOnlyError(
                f"surd argument {term.arg} is not accepted by the digit engine"
            )
    if identity.rhs == 0:
        raise DegenerateIdentityError("rhs = 0 determines no value of pi")
    if not verify_exact(identity).holds:
        raise InconsistentInputError("identity fails exact verification")
    # arctan(t) = arctan(t') + h*pi/2 with t' in (-1, 1]: the half-turns and
    # arctan(1) = pi/4 move to the right side, arctan(0) drops out
    work, rprime = [], identity.rhs
    for term in identity.terms:
        angle = NormalAngle(term.arg, 0).canonical()
        rprime -= Fraction(term.coeff * angle.h, 2)
        if angle.t == 1:
            rprime -= Fraction(term.coeff, 4)
        elif angle.t != 0:
            work.append((term.coeff, angle.t))
    if rprime == 0:
        raise DegenerateIdentityError(
            "pi cancels out after half-turn elimination"
        )
    for guard in (SPLIT_GUARD, 3 * SPLIT_GUARD, 9 * SPLIT_GUARD):
        text, unrounded = _run_digits(work, rprime, digits, guard)
        if not unrounded:
            break
    return DigitResult(
        digits=text,
        source=identity,
        elapsed=time.perf_counter() - start,
        unrounded=unrounded,
    )


def lehmer_measure(identity: Identity) -> float:
    """Sum of 1/log10(1/|t'|) over terms, |t'| <= 1 after reciprocal
    normalization; math.inf when any |t'| = 1.  Smaller means faster."""
    total = 0.0
    for term in identity.terms:
        if isinstance(term.arg, Surd):
            raise RationalOnlyError("the measure is defined for rational terms")
        if term.arg == 0:
            raise DegenerateArgumentError("arctan(0) contributes no digits")
        t = NormalAngle(term.arg, 0).canonical().t
        p, q = abs(t.numerator), t.denominator
        if p == q:
            return math.inf
        total += 1.0 / (math.log10(q) - math.log10(p))
    return total
