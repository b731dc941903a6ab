"""Binary-splitting pi digits from rational Machin-like identities.

arctan(p/q) = Sum_j a_j with a_0 = p/q and a_j / a_(j-1) =
-p^2 (2j-1) / (q^2 (2j+1)), a ratio of small integers, so the partial sum
over [0, N) is computed exactly as T/Q by the classic product tree
(Haible and Papanikolaou, 1998):

    P(a,b) = P(a,m) * P(m,b)
    Q(a,b) = Q(a,m) * Q(m,b)
    T(a,b) = T(a,m) * Q(m,b) + P(a,m) * T(m,b)

The term count N makes the tail (|p|/q)^(2N+1)/(2N+1) < 10^-(S+10).

Number type.  The tree is the same for ints and for the C `decimal`
module, whose products use a number-theoretic transform and whose integer
division uses Newton iteration, where CPython's ints use Karatsuba and a
quadratic `//`.  A run whose estimated root operands, summed over its
series, exceed DECIMAL_DIGITS digits runs its trees on Decimal; smaller
runs stay on ints.  Decimal trees build subtrees of up to LEAF_DIGITS
digits in ints and convert them whole, so no big int is ever converted,
and all Decimal work runs in EXACT: unbounded precision and exponent with
Inexact, Rounded and InvalidOperation trapped, so any rounding raises
instead of passing silently.

Error budget.  Each series value is taken once, at S = D + GUARD.  On
ints it is floor(T * 10^S / Q), within 1 unit of the partial sum.  On
Decimal, T and Q are first floored to the top S + 3 digits of Q:
T' = floor(T/10^k) and Q' = floor(Q/10^k) >= 10^(S+2).  As |T/Q| < 1,
|T'/Q' - T/Q| < 2/Q', so the quotient moves by less than 2*10^-2 units,
and the integer division, which truncates toward zero, adds less than 1
unit on either side.  Either way each value is within 2 units of
arctan(p/q) * 10^S, and the enclosure counts 3 units per unit of
coefficient: the 2 of an exact floor plus a full unit for the truncated
division.  Summing c_i times these values and dividing by rhs' gives an
integer enclosure lo < pi*10^S < hi + 1.  The D truncated decimals are
proved when lo and hi + 1 agree on them; otherwise the run is flagged
``unrounded``.

One guard proves whatever a narrower one would.  At a guard g <= 30, the
values floored from these by 90 - g digits are within 1 + eps units of
arctan(p/q) * 10^(D+g), eps = 2*10^-60, so with C = Sum |c_i| the real
error is under (1 + eps)*C units against a spread of 3*C.  When g proves
the digits, pi*10^D therefore lies at least (2 - eps)*C/|rhs'| units of
10^-(D+g) from every digit boundary.  The enclosure at GUARD = 90 reaches
less than 5*C/|rhs'| + 1 units of 10^-(D+90) from pi*10^D.  As
|rhs'| <= C/4, that is under 10^-59 * C/|rhs'| units of 10^-(D+g), so the
enclosure stays inside the same digit and proves those digits too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_FLOOR,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)
from fractions import Fraction

from .errors import (
    DegenerateArgumentError,
    DegenerateIdentityError,
    InconsistentInputError,
    RationalOnlyError,
    ReductionRequiredError,
    check_int,
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

# tail margin of one series: its partial sum is within 10**-(digits + 10)
SPLIT_GUARD = 10
# decimals past the D asked for at which a digit run takes its enclosure
GUARD = 90
# estimated root operand digits, summed over a run's series, above which
# the trees run on Decimal: measured on Python 3.11 (2-vCPU Xeon), Decimal
# runs took 1.1-1.4x the int time below 45k, about the same near 100k and
# 0.74-0.77x from 180k up
DECIMAL_DIGITS = 100_000
# largest int subtree, in estimated digits, that a Decimal tree converts
LEAF_DIGITS = 1000
# exact integer arithmetic: any rounding raises
EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


@dataclass(frozen=True)
class DigitResult:
    digits: str
    source: Identity
    elapsed: float
    unrounded: bool = False


def _split(p: int, q: int, a: int, b: int, num=int, need_p=True) -> tuple:
    """(P, Q, T) for the term range [a, b): the partial sum is T/Q.

    The values have type `num`; a Decimal tree builds each range of at most
    LEAF_DIGITS estimated digits in ints and converts it whole.  Only a
    left child's P is read, so the root and its right spine are called
    without `need_p` and skip that product.
    """
    if num is not int and (
        b - a == 1 or (b - a) * math.log10(q * q * (2 * b + 1)) <= LEAF_DIGITS
    ):
        return tuple(map(num, _split(p, q, a, b)))
    if b - a == 1:
        if a == 0:
            return p, q, p
        pj = -p * p * (2 * a - 1)
        return pj, q * q * (2 * a + 1), pj
    m = (a + b) // 2
    p1, q1, t1 = _split(p, q, a, m, num)
    p2, q2, t2 = _split(p, q, m, b, num, need_p)
    return p1 * p2 if need_p else None, q1 * q2, t1 * q2 + p1 * t2


def _term_count(p: int, q: int, decimals: int, num=int) -> int:
    """Smallest N with (|p|/q)^(2N+1)/(2N+1) < 10^-decimals.

    The exact test runs on values of type `num`.
    """
    rate = math.log10(q) - math.log10(abs(p))
    # step down to the least N of the test in floats,
    # (2N+1)*rate + log10(2N+1) > decimals, then settle the exact test
    n = max(1, math.ceil(decimals / (2 * rate)))
    while n > 1 and (2 * n - 1) * rate + math.log10(2 * n - 1) > decimals:
        n -= 1
    # the exact test on x = |p|^(2n+1) and y = q^(2n+1), powered once and
    # then stepped by p^2 and q^2
    ap, aq = num(abs(p)), num(q)
    tenp, p2, q2 = num(10) ** decimals, ap * ap, aq * aq
    x, y = ap ** (2 * n + 1), aq ** (2 * n + 1)
    while tenp * x >= (2 * n + 1) * y:
        n, x, y = n + 1, x * p2, y * q2
    while n > 1 and tenp * (x // p2) < (2 * n - 1) * (y // q2):
        n, x, y = n - 1, x // p2, y // q2
    return n


def _tree_digits(t: Fraction, decimals: int) -> float:
    """Estimated digits of the root Q of arctan(t)'s series, 0 < |t| < 1."""
    p, q = abs(t.numerator), t.denominator
    n = decimals / (2 * (math.log10(q) - math.log10(p)))
    return n * (2 * math.log10(q) + math.log10(2 * n + 1))


def atan_series_split(p, q, digits: int):
    """arctan(p/q) * 10**digits to within 2 units, for |p/q| < 1.

    Generic in the number type: ints give the floor of the exact partial
    sum, whose distance from arctan(p/q) is below 10**-(digits + 10), as an
    int; Decimals give an integral Decimal by the truncated division of the
    module docstring.
    """
    num = type(p)
    p, q = int(p), int(q)
    if q == 0:
        raise ZeroDivisionError("q must be nonzero")
    if q < 0:
        p, q = -p, -q
    g = math.gcd(p, q)
    if g > 1:
        p, q = p // g, q // g
    if p == 0:
        return num(0)
    if abs(p) >= q:
        raise ReductionRequiredError(
            f"|{format_value(Fraction(p, q))}| >= 1: reduce via arctan(t) ="
            " sign(t)*pi/2 - arctan(1/t)"
        )
    with localcontext(EXACT):
        n = _term_count(p, q, digits + SPLIT_GUARD, num)
        _, big_q, big_t = _split(p, q, 0, n, num, need_p=False)
        if num is int:
            return big_t * 10**digits // big_q
        k = big_q.adjusted() - digits - 2
        if k > 0:
            big_t, big_q = _drop_digits(big_t, k), _drop_digits(big_q, k)
        return big_t.scaleb(digits) // big_q


def _drop_digits(x, k: int):
    """floor(x / 10**k) for an int or an integral Decimal, in its own type."""
    if isinstance(x, int):
        return x // 10**k
    return x.scaleb(-k).to_integral_value(ROUND_FLOOR)


def _enclosure_text(values, rprime: Fraction, digits: int) -> tuple[str, bool]:
    """Truncated decimals of pi and whether its integer enclosure proves them.

    `values` pairs each coefficient with its series value at scale
    10**(digits + GUARD).
    """
    acc = sum(c * f for c, f in values)
    # |acc - rprime*pi*10**S| < spread at S = digits + GUARD, so
    # lo < pi*10**S < hi + 1; the sign goes to the numerator, so on either
    # type both divisions are floors of positive numbers
    spread = 3 * sum(abs(c) for c, _ in values)
    sign = 1 if rprime > 0 else -1
    den, rnum = rprime.denominator, abs(rprime.numerator)
    lo, hi = ((sign * acc + e) * den // rnum for e in (-spread, spread))
    truncated, top = _drop_digits(lo, GUARD), _drop_digits(hi + 1, GUARD)
    text = _int_text(truncated) if isinstance(truncated, int) else str(truncated)
    if len(text) != digits + 1 or text[0] != "3":
        raise InconsistentInputError(
            "identity does not evaluate to pi at the claimed rhs"
        )
    return "3." + text[1:], truncated != top


def pi_digits(identity: Identity, digits: int) -> DigitResult:
    """pi to `digits` truncated decimals via (sum c_i*arctan(t_i)) / rhs."""
    check_int(digits, "digits", 1)
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
    # one number type for the whole run, so no big int meets a Decimal
    scale = digits + GUARD
    size = sum(_tree_digits(t, scale) for _, t in work)
    num = Decimal if size > DECIMAL_DIGITS else int
    with localcontext(EXACT):
        values = [
            (c, atan_series_split(num(t.numerator), num(t.denominator), scale))
            for c, t in work
        ]
        text, unrounded = _enclosure_text(values, rprime, digits)
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
