"""Binary-splitting pi digits from Machin-like identities.

Every argument t, rational or surd, is cut into Brent's bit-burst chunks
a/b by the exact loop ``fixedpoint._bit_burst`` that the interval route
also uses, and each chunk is summed by Euler's series

    arctan(a/b) = ab/r * Sum_k (2k)!!/(2k+1)!! * (a^2/r)^k,   r = a^2 + b^2,

whose term ratio 2k*a^2 / ((2k+1)*r) is a ratio of small integers, below
1/2 for every |a/b| <= 1, and whose terms all have the sign of a.  So the
engine never needs the difference identity arctan(t) = pi/4 + ..., which
would cancel pi from the right side of an identity such as
machin_pair(2, 7).  The partial sum over [0, N) is computed exactly as T/Q
by the classic product tree (Haible and Papanikolaou, 1998), with leaf 0
(ab, r, ab) and leaf k (2k*a^2, (2k+1)*r, 2k*a^2):

    P(i,j) = P(i,m) * P(m,j)
    Q(i,j) = Q(i,m) * Q(m,j)
    T(i,j) = T(i,m) * Q(m,j) + P(i,m) * T(m,j)

Term k is at most |a|b/r * (a^2/r)^k, and each later term is below y times
the one before, y = a^2/r, so with 1 - y = b^2/r the tail from N on is
below |a|^(2N+1) / (b*r^N).  N is the least N >= 1 with
10^(S+10) * |a|^(2N+1) < b * r^N, which puts the tail below 10^-(S+10).
A short rational argument (q <= 100) is one chunk, so one series.

Number type.  The tree is the same for ints and for the C `decimal`
module, whose products use a number-theoretic transform and whose integer
division uses Newton iteration, where CPython's ints use Karatsuba and a
quadratic `//`.  A run whose estimated root operands, summed over its
chunks, exceed DECIMAL_DIGITS digits runs its trees on Decimal; smaller
runs stay on ints.  Decimal trees build subtrees of up to LEAF_DIGITS
digits in ints and convert them whole.  Only a long argument or a surd
converts a big int: the chunk of a late bit-burst step, to Decimal and
back, its first leaf, and the remainder's floor.  All Decimal work runs
in EXACT: unbounded precision and exponent with Inexact, Rounded and
InvalidOperation trapped, so any rounding raises instead of passing
silently.

Error budget.  A run works at S = D + GUARD.  Each term c*arctan(t) gets
one value and a count u of units of 10^-S that bounds its error:

* A surd t is first floored to p/10^S by ``fixedpoint._pair``, one
  ``isqrt``.  arctan has slope at most 1, so this moves the angle by less
  than 1 unit, and u counts 1.
* Each chunk's series value is taken once.  On ints it is
  floor(T * 10^S / Q), within 1 unit of the partial sum.  On Decimal, T
  and Q are first floored to the top S + 3 digits of Q: T' = floor(T/10^k)
  and Q' = floor(Q/10^k) >= 10^(S+2).  As |T/Q| < 1, |T'/Q' - T/Q| < 2/Q',
  so the quotient moves by less than 2*10^-2 units, and the integer
  division, which truncates toward zero, adds less than 1 unit on either
  side.  Either way the value is within 2 units of arctan(a/b) * 10^S,
  and u counts 3 per chunk: the 2 of an exact floor plus a full unit for
  the truncated division.
* The remainder p/q that the loop leaves once 3m >= S has |p/q| < 10^-m,
  so |arctan(p/q) - p/q| < 10^(-3m)/3 <= 10^-S/3, and floor(p * 10^S / q),
  taken on ints, is within 4/3 units.  u counts 2.

A term with one chunk, such as every short rational argument, counts
3*|c| units, as a whole series did.  With W = Sum |c_i|*u_i, summing c_i
times these values and dividing by rhs' gives an integer enclosure
lo < pi*10^S < hi + 1.  The D truncated decimals are proved when lo and
hi + 1 agree on them; otherwise the run is flagged ``unrounded``.

One guard proves whatever a narrower one would.  Take a run at a guard
g <= 30 whose term values are these floored by 90 - g digits, counted
with the same units.  A term with u >= 2 is then off by less than
1 + eps <= 2u/3 units of 10^-(D+g), eps = u*10^-60; a surd that floors to
0, u = 1, is off by less than eps.  So the real error is under W - W/3,
and when g proves the digits, pi*10^D lies at least W/(3*|rhs'|) units of
10^-(D+g) from every digit boundary.  The enclosure at GUARD = 90 reaches
less than 2W/|rhs'| + 1 units of 10^-(D+90) from pi*10^D.  As
|rhs'| < W/4, that is under 10^-59 * W/|rhs'| units of 10^-(D+g), so the
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
    InvalidArgumentError,
    RationalOnlyError,
    check_int,
)
from .fixedpoint import _bit_burst, _pair
from .generator import Identity
from .odot import NormalAngle
from .values import Surd, _int_text
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
# estimated root operand digits, summed over a run's chunks, above which
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


def _split(p: int, q: int, lo: int, hi: int, num=int, need_p=True) -> tuple:
    """(P, Q, T) of Euler's series for arctan(p/q) over the terms [lo, hi).

    The partial sum is T/Q.  The values have type `num`; a Decimal tree
    builds each range of at most LEAF_DIGITS estimated digits in ints and
    converts it whole.  Only a left child's P is read, so the root and its
    right spine are called without `need_p` and skip that product.
    """
    if num is not int and (
        hi - lo == 1
        or (hi - lo) * math.log10((p * p + q * q) * (2 * hi + 1)) <= LEAF_DIGITS
    ):
        return tuple(map(num, _split(p, q, lo, hi)))
    if hi - lo == 1:
        if lo == 0:
            return p * q, p * p + q * q, p * q
        pk = 2 * lo * p * p
        return pk, (2 * lo + 1) * (p * p + q * q), pk
    mid = (lo + hi) // 2
    p1, q1, t1 = _split(p, q, lo, mid, num)
    p2, q2, t2 = _split(p, q, mid, hi, num, need_p)
    return p1 * p2 if need_p else None, q1 * q2, t1 * q2 + p1 * t2


def _term_estimate(p: int, q: int, decimals: int) -> float:
    """X such that the least N of the tail test 10**decimals*|p|**(2N+1) <
    q*r**N, r = p*p + q*q, is floor(X) + 1, up to float rounding."""
    lp, lq = math.log10(abs(p)), math.log10(q)
    return (decimals + lp - lq) / (math.log10(p * p + q * q) - 2 * lp)


def atan_series_split(p, q, digits: int):
    """arctan(p/q) * 10**digits to within 2 units, for |p/q| <= 1.

    Generic in the number type: ints give the floor of the exact partial
    sum of Euler's series, whose distance from arctan(p/q) is below
    10**-(digits + 10), as an int; Decimals give an integral Decimal by the
    truncated division of the module docstring.
    """
    # the sign goes to p and the gcd is divided out, as the chunks need
    num, t = type(p), Fraction(int(p), int(q))
    p, q = t.numerator, t.denominator
    if p == 0:
        return num(0)
    if abs(p) > q:
        raise InvalidArgumentError("the series needs |p/q| <= 1")
    decimals = digits + SPLIT_GUARD
    with localcontext(EXACT):
        # the least N >= 1 with 10**decimals*|p|**(2N+1) < q*r**N, stepped up
        # exactly from a float estimate below it
        n = max(1, math.floor(_term_estimate(p, q, decimals)) - 1)
        ap, bq = num(abs(p)), num(q)
        p2 = ap * ap
        r = p2 + bq * bq
        x, y = num(10) ** decimals * ap ** (2 * n + 1), bq * r**n
        while x >= y:
            n, x, y = n + 1, x * p2, y * r
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

    `values` holds a (coefficient, value, units) triple per term: the value
    is within `units` of its arctangent at scale 10**(digits + GUARD).
    """
    acc = sum(c * f for c, f, _ in values)
    # |acc - rprime*pi*10**S| < spread at S = digits + GUARD, so
    # lo < pi*10**S < hi + 1; the sign goes to the numerator, so on either
    # type both divisions are floors of positive numbers
    spread = sum(abs(c) * units for c, _, units in values)
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
    if identity.rhs == 0:
        raise DegenerateIdentityError("rhs = 0 determines no value of pi")
    if not verify_exact(identity).holds:
        raise InconsistentInputError("identity fails exact verification")
    # arctan(t) = arctan(t') + h*pi/2 with t' in (-1, 1]: the half-turns and
    # arctan(1) = pi/4 move to the right side, arctan(0) drops out, and any
    # other t' is floored if it is a surd and cut into bit-burst chunks
    scale = digits + GUARD
    work, rprime = [], identity.rhs
    for term in identity.terms:
        angle = NormalAngle(term.arg, 0).canonical()
        rprime -= Fraction(term.coeff * angle.h, 2)
        if angle.t == 1:
            rprime -= Fraction(term.coeff, 4)
        elif angle.t != 0:
            p, q, slack = _pair(angle.t, 10**scale)
            work.append((term.coeff, *_bit_burst(p, q, scale), slack))
    if rprime == 0:
        raise DegenerateIdentityError(
            "pi cancels out after half-turn elimination"
        )
    # one number type for the whole run, so the values sum in one type
    size = 0.0
    for _, chunks, _, _ in work:
        for a, b in chunks:
            n = max(1.0, _term_estimate(a, b, scale))
            size += n * (math.log10(a * a + b * b) + math.log10(2 * n + 1))
    num = Decimal if size > DECIMAL_DIGITS else int
    with localcontext(EXACT):
        values = []
        for c, chunks, (p, q), slack in work:
            f = sum(atan_series_split(num(a), num(b), scale) for a, b in chunks)
            units = 3 * len(chunks) + (2 if p else 0) + slack
            values.append((c, f + num(p * 10**scale // q), units))
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
