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
A short rational argument (q <= 100) is one chunk, so one series.  The
tree runs on |a|, so P, Q and T are never negative, and the sign of a is
put on the quotient.

Capped tree.  The exact root Q has several times S digits (about 4 for
arctan(1/5) and 13 for the arctan(17/31) of machin_pair(2, 7)), but only
S digits of T/Q are read.  So each range [lo, hi) is held to a room of
B - w units of the base beta (bits on ints, digits on Decimal), where B is
S + 20 + len(str(N)) digits (times 3322/1000 on ints) and w is a decay
bound: d = P(0,lo)/Q(0,lo) < beta^-w.  The recursion runs left to right
and gives a right child the room of its parent less
len(Q1) - len(P1) - 2 units of its left sibling, as
P1/Q1 < beta^(len(P1) - len(Q1) + 1) and the spare unit covers the
sibling's own floors.  A range whose Q would exceed its room floors P, Q
and T by one common beta^k down to the room; a range whose estimated Q
fits is built exactly, so a float estimate only picks the exact ranges.

Cap lemma.  Floors of non-negative X and Q by beta^k move X/Q by at most
max(X/Q, 1)/Q', and T/Q and P/Q stay below 1 (every term ratio is at most
1/2), so a floor moves both by under 2/Q'.  The combine step is exact and
bilinear in each child's (P, Q, T), with every ratio in it below 1, so an
error e in the T/Q or P/Q of [lo, hi) reaches the root as at most d*e,
up to products of errors.  A floored range keeps Q' >= beta^(room - 1), so
its floors move the root by under 4*beta^(1-B), and fewer than 2N ranges
move it by under 8N*beta^(1-B) < 10^-(S+18) in all.  The room stays
positive: by the minimality of N, d >= 10^-(S+10)/(4N) for every lo < N,
so B - w stays above 8 digits.

Exact ranges.  A range built exactly, of at most BLOCK terms, and every
single term, capped or not, is multiplied out in one loop from the left:
t = t*Q_k + p*P_k, p = p*P_k, q = q*Q_k.  As
T(i,j) = Sum_k P_k * Prod_{l<k} P_l * Prod_{l>k} Q_l for any bracketing,
these are the integers an unreduced recursion builds.  Above a block, every
combine of two exact int ranges first divides P1 and Q2 by
g = gcd(P1, Q2).  That takes g once out of each of P, Q and T, so T/Q and
P/Q keep their values, while Q shrinks: Euler's P = Prod 2k*a^2 and
Q = Prod (2k+1)*r share most of their odd primes, and 4000 exact terms of
arctan(1/5) hold 6.6 bits of Q per term instead of 16.2.  Capped ranges
take no gcd: a floored value has no factor worth a quadratic gcd.  The cap
lemma, the room rule and the budget read only T/Q, P/Q and the lengths
through P1/Q1 < beta^(len(P1) - len(Q1) + 1), which holds for any positive
integers, and the float estimate of Q only overstates a reduced Q, so the
proof below is unchanged.

Number type.  The tree is the same for ints and for the C `decimal`
module, whose products use a number-theoretic transform and whose integer
division uses Newton iteration, where CPython's ints use Karatsuba and a
quadratic `//`.  A run at S above DECIMAL_DIGITS runs its trees on
Decimal; smaller runs stay on ints.  S stands for the run's largest
capped root: the tree of a chunk a/b has over S + 10 - log10(b/|a|)
digits uncapped, N*log10(r), so any chunk with b/|a| <= 10^10, such as
the first chunk of an argument |t| >= 1/100, has a root of S to B digits,
B the room of the cap.  The chunks reach the series as ints with the
run's number type.  Decimal trees build subtrees of up to LEAF_DIGITS
digits in ints and convert them whole.  Only a long argument or a surd
converts a big int: the leaves of a late bit-burst chunk and the
remainder's floor.  All Decimal work runs in EXACT: unbounded precision
and exponent with Inexact, Rounded and InvalidOperation trapped, so any
rounding raises instead of passing silently; every floor of the cap is an
explicit ROUND_FLOOR.

Error budget.  A run works at S = D + GUARD.  Each term c*arctan(t) gets
one value and a count u of units of 10^-S that bounds its error:

* A surd t is first floored to p/10^S by ``fixedpoint._pair``, one
  ``isqrt``.  arctan has slope at most 1, so this moves the angle by less
  than 1 unit, and u counts 1.
* Each chunk's series value is taken once, from the capped root:
  T * 10^S // Q, a floor on ints and a truncation toward zero on Decimal,
  so within 1 unit of a quotient that the cap lemma puts within 10^-18
  units of the partial sum.  The value is thus within one unit of the
  exact floor, and within 1 + 10^-18 + 10^-10 < 2 units of
  arctan(a/b) * 10^S.  u counts 3 per chunk.
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
    check_int,
)
from .fixedpoint import _bit_burst, _pair
from .generator import Identity
from .odot import NormalAngle
from .values import Value, _int_text, _ratio, _Record, _set
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
# working decimals S of a run, which its biggest tree is capped to, above
# which the trees run on Decimal: measured on
# Python 3.11 (2-vCPU Xeon) over Machin, Euler, machin_pair(2, 7),
# machin_pair(5, 2) and golden_family("even", 1), on the gcd-reduced trees,
# Decimal runs took 1.3-1.6x the int time at 10^4 to 2*10^4 digits,
# 1.02-1.19x at 3*10^4, 0.94-1.27x at 4*10^4 to 4.5*10^4, 0.84-1.22x at
# 5*10^4 to 5.5*10^4, 0.78-0.99x at 6*10^4 and 0.59-0.80x at 10^5
DECIMAL_DIGITS = 50_000
# largest int subtree, in estimated digits, that a Decimal tree converts
LEAF_DIGITS = 1000
# most terms of an exact range multiplied out in one loop
BLOCK = 32
# exact integer arithmetic: any rounding raises
EXACT = Context(
    prec=MAX_PREC,
    Emax=MAX_EMAX,
    Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded],
)


class DigitResult(_Record):
    __slots__ = ("digits", "source", "elapsed", "unrounded")

    def __init__(
        self, digits: str, source: Identity, elapsed: float, unrounded: bool = False
    ):
        _set(self, "digits", digits)
        _set(self, "source", source)
        _set(self, "elapsed", elapsed)
        _set(self, "unrounded", unrounded)


def _length(x) -> int:
    """Units in a non-negative x: bits of an int, digits of an integral
    Decimal (one for zero)."""
    return x.bit_length() if isinstance(x, int) else x.adjusted() + 1


def _cap(k: int, values: tuple) -> tuple:
    """(P, Q, T) each floored by base**k: 2**k on ints, 10**k on Decimal."""
    if isinstance(values[1], int):
        return tuple(x >> k for x in values)
    return tuple(x.scaleb(-k).to_integral_value(ROUND_FLOOR) for x in values)


def _split(a: int, b: int, lo: int, hi: int, num=int, room=None) -> tuple:
    """(P, Q, T) of Euler's series for arctan(a/b), a >= 0, over [lo, hi).

    The partial sum over the range is T/Q and the product of its term
    ratios P/Q.  The values have type `num`; a Decimal tree builds each
    range of at most LEAF_DIGITS estimated digits in ints and converts it
    whole.  With `room`, a range whose Q would exceed `room` units (bits on
    ints, digits on Decimal) is floored by ``_cap`` to that size, and a
    right child's room is what its left sibling's decay leaves; a range
    whose estimated Q fits its room is built exactly.  Exact int ranges of
    up to BLOCK terms and single terms are multiplied out by ``_block``, and
    larger exact int ranges divide gcd(P1, Q2) out of their combine.
    """
    # a float estimate of Q only picks the ranges built exactly
    if room is not None and (hi - lo) * math.log(
        (a * a + b * b) * (2 * hi + 1), 2 if num is int else 10
    ) <= room:
        room = None
    if num is not int and (
        hi - lo == 1
        or (hi - lo) * math.log10((a * a + b * b) * (2 * hi + 1)) <= LEAF_DIGITS
    ):
        values = tuple(map(num, _split(a, b, lo, hi)))
    elif num is int and (hi - lo == 1 or room is None and hi - lo <= BLOCK):
        values = _block(a, b, lo, hi)
    else:
        mid = (lo + hi) // 2
        p1, q1, t1 = _split(a, b, lo, mid, num, room)
        # P1/Q1 < base**(len(P1) - len(Q1) + 1); one more unit covers the
        # floors inside the left child
        right = None if room is None else room - max(0, _length(q1) - _length(p1) - 2)
        p2, q2, t2 = _split(a, b, mid, hi, num, right)
        if room is None and num is int:
            # T = T1*Q2 + P1*T2 and P = P1*P2 take g = gcd(P1, Q2) once each,
            # as Q = Q1*Q2 does, so T/Q and P/Q keep their values
            g = math.gcd(p1, q2)
            if g > 1:
                p1, q2 = p1 // g, q2 // g
        values = p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    excess = 0 if room is None else _length(values[1]) - room
    return _cap(excess, values) if excess > 0 else values


def _block(a: int, b: int, lo: int, hi: int) -> tuple:
    """Exact int (P, Q, T) of Euler's series for arctan(a/b) over [lo, hi),
    multiplied out term by term from the left: the integers the product
    tree builds for the same range without a gcd."""
    a2, r = a * a, a * a + b * b
    p, q, t = (a * b, r, a * b) if lo == 0 else (1, 1, 0)
    for k in range(max(lo, 1), hi):
        pk, qk = 2 * k * a2, (2 * k + 1) * r
        t = t * qk + p * pk
        p *= pk
        q *= qk
    return p, q, t


def atan_series_split(p: int, q: int, digits: int, num=int):
    """arctan(p/q) * 10**digits, for |p/q| <= 1, as an integral `num`.

    Euler's series is summed to a partial sum within 10**-(digits + 10) of
    arctan(p/q), and its capped tree gives a T/Q within 10**-(digits + 18)
    of that sum.  The value is 10**digits * T/Q, floored on ints and
    truncated toward zero on Decimal, so it is within one unit of the floor
    of the partial sum; where no range was capped, the int value is that
    floor.
    """
    # the sign goes to p and the gcd is divided out, as the chunks need
    t = Fraction(p, q)
    p, q = t.numerator, t.denominator
    if p == 0:
        return num(0)
    if abs(p) > q:
        raise InvalidArgumentError("the series needs |p/q| <= 1")
    a, decimals = abs(p), digits + SPLIT_GUARD
    a2 = a * a
    r = a2 + q * q
    # the least N >= 1 with 10**decimals*|p|**(2N+1) < q*r**N, stepped up
    # exactly from a float estimate below it
    la, lq = math.log10(a), math.log10(q)
    n = max(1, math.floor((decimals + la - lq) / (math.log10(r) - 2 * la)) - 1)
    x, y = 10**decimals * a ** (2 * n + 1), q * r**n
    while x >= y:
        n, x, y = n + 1, x * a2, y * r
    # the root keeps digits + 20 + len(str(n)) digits
    room = decimals + SPLIT_GUARD + len(str(n))
    if num is int:
        room = room * 3322 // 1000 + 1  # 3.322 > log2(10)
    with localcontext(EXACT):
        _, big_q, big_t = _split(a, q, 0, n, num, room)
        top = big_t * 10**digits if num is int else big_t.scaleb(digits)
        # a floor on ints and a truncation toward zero on Decimal
        return (top if p > 0 else -top) // big_q


def _enclosure_text(values, rprime: Fraction, digits: int) -> tuple[str, bool]:
    """Truncated decimals of pi and whether its integer enclosure proves them.

    `values` holds a (coefficient, value, units) triple per term: the value
    is within `units` of its arctangent at scale 10**(digits + GUARD).
    """
    acc = sum(c * f for c, f, _ in values)
    # |acc - rprime*pi*10**S| < spread at S = digits + GUARD, so
    # lo < pi*10**S < hi + 1; the sign goes to the numerator, so on either
    # type every division here is a floor of a positive number
    spread = sum(abs(c) * units for c, _, units in values)
    sign = 1 if rprime > 0 else -1
    den, rnum = rprime.denominator, abs(rprime.numerator)
    lo, hi = ((sign * acc + e) * den // rnum for e in (-spread, spread))
    truncated, top = lo // 10**GUARD, (hi + 1) // 10**GUARD
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
    unit = 10**scale
    work, rprime = [], identity.rhs
    for term in identity.terms:
        angle = NormalAngle(term.arg, 0).canonical()
        rprime -= Fraction(term.coeff * angle.h, 2)
        if angle.t == 1:
            rprime -= Fraction(term.coeff, 4)
        elif angle.t != 0:
            p, q, slack = _pair(angle.t, unit)
            work.append((term.coeff, *_bit_burst(p, q, scale), slack))
    if rprime == 0:
        raise DegenerateIdentityError(
            "pi cancels out after half-turn elimination"
        )
    # one number type for the whole run, so the values sum in one type
    num = Decimal if scale > DECIMAL_DIGITS else int
    with localcontext(EXACT):
        values = []
        for c, chunks, (p, q), slack in work:
            f = sum(atan_series_split(a, b, scale, num) for a, b in chunks)
            if p:  # the remainder's floor; every short rational leaves none
                f += num(p * unit // q)
            values.append((c, f, 3 * len(chunks) + (2 if p else 0) + slack))
        text, unrounded = _enclosure_text(values, rprime, digits)
    return DigitResult(
        digits=text,
        source=identity,
        elapsed=time.perf_counter() - start,
        unrounded=unrounded,
    )


def _log10_inverse(t: Value) -> float:
    """log10(1/t) for 0 < t <= 1 from exact ints: by log1p of the exact gap
    1/t - 1 below 2, so that a t near 1 keeps its digits, and by math.log10
    of ints of any size above; 0.0 when that gap is 0 or below float range."""
    r = 1 / t
    if r < 2:
        p, q = _ratio(r - 1)
        return math.log1p(p / q) / math.log(10)
    p, q = _ratio(r)
    return math.log10(p) - math.log10(q)


def lehmer_measure(identity: Identity) -> float:
    """Sum of 1/log10(1/|t'|) over terms, |t'| <= 1 after reciprocal
    normalization, for rational and surd terms alike; math.inf when any
    |t'| = 1 or a score passes float range.  Smaller means faster."""
    total = 0.0
    for term in identity.terms:
        if term.arg == 0:
            raise DegenerateArgumentError("arctan(0) contributes no digits")
        log = _log10_inverse(abs(NormalAngle(term.arg, 0).canonical().t))
        if log == 0.0:
            return math.inf
        total += 1.0 / log
    return total
