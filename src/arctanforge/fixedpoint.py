"""Integer enclosures of arctangents at a fixed working precision.

An interval (lo, hi) of integers means [lo/S, hi/S] with S = 10**wp.
``FixedPointContext.atan`` takes an exact Value x and returns an interval
that contains arctan(x)*S, built from integer floors whose errors are
counted.  All its reduction work is on one unreduced integer pair (p, q),
q > 0, standing for t = p/q; no gcd is taken:

1. ``NormalAngle(x, 0).canonical()`` writes x exactly as h*pi/2 + arctan(t)
   with -1 < t <= 1.  A surd t is then replaced by p/S with p = floor(t*S),
   one ``isqrt``.  arctan has slope at most 1, so this moves the angle by
   less than one unit, and the final interval is widened by one unit on
   each side.  A rational t is taken as it is.  When |t| > 1/2, the
   difference identity arctan(t) = s*pi/4 + arctan((t - s)/(1 + s*t)),
   s = sign(t), becomes (p, q) <- (p - s*q, q + s*p), leaving |t| <= 1/2.
2. A bit-burst loop (Brent, "Fast multiple-precision evaluation of
   elementary functions", JACM 1976) takes a chunk a/b off t: t truncated
   toward zero to m decimals, a = sign(p)*floor(|p|*10**m/q) and b = 10**m,
   for m = 1, 2, 4, ..., or t itself once q <= 10**(2m), so a short
   argument is one series.  Then
   arctan(t) = arctan(a/b) + arctan((t - a/b)/(1 + a*t/b)) exactly, which
   on the pair is (p, q) <- (p*b - a*q, q*b + a*p).  a has the sign of p,
   so a*p >= 0: q stays positive, no half-turn enters, and the new |t| is
   below 10**-m.  The pair grows by about m digits per step.  This loop,
   ``_bit_burst``, is shared with the digit engine, which sums each chunk
   by its own series; the two routes share the exact chunking and nothing
   else.  A surd's q = S never meets the whole rule before step 4 stops
   the loop.
3. Each arctan(a/b) is Euler's series
   arctan(x) = x/(1 + x**2) * Sum (2k)!!/(2k+1)!! * (x**2/(1 + x**2))**k,
   run over |a| as one integer recurrence with r = a*a + b*b:
   ``power = |a|*b*S // r``, then ``power = power*2k*a*a // ((2k+1)*r)``,
   ``total += power``, until the first zero power.  Every term has the sign
   of a, and each step is one floor.  With (a/b)**2 <= 1/4 the ratio
   y = a*a/r is at most 1/5, and a step multiplies by at most y, so a power
   is low by less than 1 + 1/5 + 1/25 + ... = 5/4 of a unit and never high.
   The tail after the zero power is below 5/4 * (y + y**2 + ...) <= 5/16,
   so n computed powers sum to less than 5n/4 + 1/3 < 2n units below
   arctan(a/b)*S: the enclosure is one-sided, (total, total + 2n), mirrored
   for a < 0.
4. Once 10**(3m) >= S, the remainder |t| < 10**-m has
   |arctan(t) - t| < |t|**3/3 < 1/S, so the exact floor and ceiling of
   p*S/q, each moved out by one unit, enclose arctan(t)*S.

pi itself comes from Euler's 5*arctan(1/7) + 2*arctan(3/79) = pi/4
(``_PI_BOOTSTRAP``); the exact fold proves that identity before the first
interval pi is built, so no numeric result feeds the exact path.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt

from .errors import check_int
from .odot import NormalAngle, fold_terms
from .values import Surd, Value, _ints, as_value

# (coeff, arg) terms of Euler's identity, summing to pi/4.
_PI_BOOTSTRAP = ((5, Fraction(1, 7)), (2, Fraction(3, 79)))

Interval = tuple[int, int]


def _floor(v: Value, scale: int) -> int:
    """floor(v*scale), exactly.

    v is (A + B*sqrt(d))/C over integers; B*sqrt(d) is 0 or irrational, so
    replacing it by its floor leaves the floor of the quotient unchanged.
    """
    A, B, C, d = _ints(v)
    root = isqrt((B * scale) ** 2 * d)
    return (A * scale + (root if B >= 0 else -root - 1)) // C


def _pair(t: Value, scale: int) -> tuple[int, int, int]:
    """(p, q, slack) for t: a rational t is p/q itself with no slack, and a
    surd t is floored to p/scale, which moves arctan(t) by less than the one
    unit of slack, as p/scale <= t < (p + 1)/scale and arctan has slope at
    most 1."""
    if isinstance(t, Surd):
        return _floor(t, scale), scale, 1
    return t.numerator, t.denominator, 0


def _bit_burst(p: int, q: int, precision: int):
    """The chunks of arctan(p/q), |p/q| <= 1 and q > 0, and its remainder.

    Returns ([(a, b), ...], (p', q')) with arctan(p/q) equal to the sum of
    arctan(a/b) over the chunks plus arctan(p'/q').  The chunk at m = 1, 2,
    4, ... decimals is p/q truncated toward zero to m decimals, or p/q
    itself once q <= 10**(2m); the loop stops when nothing is left or when
    3m >= precision, and then |p'/q'| < 10**-m.
    """
    chunks, m = [], 1
    while p:
        b = 10**m
        if q <= b * b:
            a, b = p, q
        else:
            a = p * b // q if p > 0 else -(-p * b // q)
        if a:
            chunks.append((a, b))
            # a*p >= 0 keeps q positive
            p, q = p * b - a * q, q * b + a * p
        if p and 3 * m >= precision:
            break
        m *= 2
    return chunks, (p, q)


def _times(u: Interval, q: Fraction | int) -> Interval:
    """Integer enclosure of q times the interval u."""
    lo, hi = sorted((u[0] * q.numerator, u[1] * q.numerator))
    return lo // q.denominator, -(-hi // q.denominator)


def _atan_series(p: int, q: int, scale: int) -> Interval:
    """An interval containing arctan(p/q)*scale, for 0 < (p/q)**2 <= 1/4, q > 0.

    Euler's series over |p|: the first power is |p|*q*scale // r with
    r = p*p + q*q, and each later one is the previous times 2k*p*p over
    (2k+1)*r, one floor, until a power is zero.  Every power is low by less
    than 5/4 of a unit, so n powers sum to less than 2n units below the value.
    """
    pp, r = p * p, p * p + q * q
    da, db = 2 * pp, 2 * r
    power = abs(p) * q * scale // r
    total, a, b = power, da, db + r
    while power:
        power = power * a // b
        total += power
        a += da
        b += db
    width = a // pp  # a = 2n*p*p after n powers
    return (total, total + width) if p > 0 else (-total - width, -total)


class FixedPointContext:
    """Integer enclosures at a fixed working precision of wp digits."""

    def __init__(self, wp: int):
        check_int(wp, "wp", 1)
        self.wp = wp
        self.scale = 10**wp

    def atan(self, x: Value) -> Interval:
        """An interval containing arctan(x)*S."""
        angle = NormalAngle(as_value(x, "x"), 0).canonical()
        t, quarters, scale = angle.t, 2 * angle.h, self.scale
        p, q, slack = _pair(t, scale)
        if 2 * abs(p) > q:
            s = 1 if p > 0 else -1
            p, q, quarters = p - s * q, q + s * p, quarters + s
        lo, hi = -slack, slack
        chunks, (p, q) = _bit_burst(p, q, self.wp)
        for a, b in chunks:
            u, v = _atan_series(a, b, scale)
            lo, hi = lo + u, hi + v
        if p:
            # |p/q| < 10**-m with 3m >= wp, so |arctan(p/q) - p/q| < 1/S
            lo, hi = lo + p * scale // q - 1, hi - (-p * scale // q) + 1
        if quarters:
            a, b = _times(pi_interval(self.wp), Fraction(quarters, 4))
            lo, hi = lo + a, hi + b
        return lo, hi


@functools.cache
def _prove_pi_bootstrap() -> None:
    if fold_terms(_PI_BOOTSTRAP).to_pi_multiple() != Fraction(1, 4):
        raise RuntimeError("the pi bootstrap identity failed its exact check")


# typed: 12.0 and True hash like 12 and 1, and must not hit their entries
@functools.lru_cache(maxsize=8, typed=True)
def pi_interval(wp: int) -> Interval:
    _prove_pi_bootstrap()
    ctx = FixedPointContext(wp)
    lo = hi = 0
    for coeff, arg in _PI_BOOTSTRAP:
        a, b = _times(ctx.atan(arg), 4 * coeff)
        lo, hi = lo + a, hi + b
    return lo, hi
