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
   run over |a| with r = a*a + b*b.  Every term has the sign of a, term k
   is at most |a|*b/r * y**k with y = a*a/r <= 1/5, and the series gains
   about 2*log10(b/|a|) digits a term.  A chunk estimated at more than
   TREE_TERMS terms goes to the tree, every other chunk to the recurrence.
   * The tree, ``_atan_tree``, is the classic exact product tree (Haible
     and Papanikolaou, 1998) over the n terms, n the least n >= 1 with
     S*|a|**(2n+1) < b*r**n, checked on ints from a float estimate below
     it.  As 1 - y = b*b/r, the tail from n on is below
     |a|**(2n+1)/(b*r**n), under one unit.  The partial sum T/Q is exact
     and floored once, v = T*S // Q, so arctan(|a|/b)*S lies in [v, v + 2):
     the enclosure is (v, v + 2), 2 units wide, mirrored for a < 0.
   * The recurrence, ``_atan_series``, takes one floor a term:
     ``power = |a|*b*S // r``, then ``power = power*2k*a*a // ((2k+1)*r)``,
     ``total += power``, until the first zero power.  A step multiplies by
     at most y, so a power is low by less than
     1 + 1/5 + 1/25 + ... = 5/4 of a unit and never high.  The tail after
     the zero power is below 5/4 * (y + y**2 + ...) <= 5/16, so n computed
     powers sum to less than 5n/4 + 1/3 < 2n units below arctan(a/b)*S:
     the enclosure is one-sided, (total, total + 2n), mirrored for a < 0.
   The tree's one floor divides by a Q of about n*log10(r) digits, which
   is quadratic on CPython ints, so it pays only for a long series over
   short a and b; a late chunk, few terms over long a and b, stays linear.
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
from math import gcd, isqrt, log10

from .errors import check_int
from .odot import NormalAngle, fold_terms
from .values import Surd, Value, _ints, as_value

# (coeff, arg) terms of Euler's identity, summing to pi/4.
_PI_BOOTSTRAP = ((5, Fraction(1, 7)), (2, Fraction(3, 79)))

Interval = tuple[int, int]

# estimated terms above which a chunk's series runs on the product tree:
# timed on Python 3.11 (2-vCPU Xeon), per chunk at wp 3020 the tree took
# 0.46x the recurrence's time on 1/5 and 1/7 and 0.6-0.8x on 3/79 and the
# early chunks of a golden-mean surd, at wp 1020 0.85-1.3x from 600 to 1700
# terms, and on late surd chunks (b = 10**16 and up) 1.3-4.6x at wp 1020
# to 10 020; passes over the verify benchmark's numeric lines were fastest
# at 800 to 1000
TREE_TERMS = 800


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


def _euler(a: int, b: int, lo: int, hi: int) -> tuple[int, int, int]:
    """Exact (P, Q, T) of Euler's series for arctan(a/b), a > 0, over the
    terms [lo, hi), with leaf 0 (ab, r, ab) and leaf k (2k*a*a, (2k+1)*r,
    2k*a*a), r = a*a + b*b.  Up to 32 terms are multiplied out from the
    left; a larger range divides gcd(P1, Q2) out of its halves, which
    keeps T/Q and P/Q."""
    if hi - lo > 32:
        mid = (lo + hi) // 2
        p1, q1, t1 = _euler(a, b, lo, mid)
        p2, q2, t2 = _euler(a, b, mid, hi)
        g = gcd(p1, q2)
        p1, q2 = p1 // g, q2 // g
        return p1 * p2, q1 * q2, t1 * q2 + p1 * t2
    a2, r = a * a, a * a + b * b
    p, q, t = (a * b, r, a * b) if lo == 0 else (1, 1, 0)
    for k in range(max(lo, 1), hi):
        pk, qk = 2 * k * a2, (2 * k + 1) * r
        t = t * qk + p * pk
        p *= pk
        q *= qk
    return p, q, t


def _atan_tree(p: int, q: int, scale: int) -> Interval:
    """An interval 2 units wide containing arctan(p/q)*scale, for
    0 < (p/q)**2 <= 1/4, q > 0: the exact partial sum over the least n with
    scale*|p|**(2n+1) < q*r**n, floored once (step 3 above)."""
    a = abs(p)
    a2, r = a * a, a * a + q * q
    # a float estimate below the least n; the int test decides it
    la = log10(a)
    n = max(1, int((log10(scale) + la - log10(q)) / (log10(r) - 2 * la)) - 1)
    x, y = scale * a ** (2 * n + 1), q * r**n
    while x >= y:
        n, x, y = n + 1, x * a2, y * r
    _, big_q, t = _euler(a, q, 0, n)
    v = t * scale // big_q
    return (v, v + 2) if p > 0 else (-v - 2, -v)


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
            # Euler's series gains about 2*log10(b/|a|) digits a term
            long = self.wp > TREE_TERMS * 2 * (log10(b) - log10(abs(a)))
            u, v = (_atan_tree if long else _atan_series)(a, b, scale)
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
