"""Fixed-point interval arithmetic over scaled integers.

A real value is enclosed by a pair (lo, hi) of integers meaning
[lo/S, hi/S] with S = 10**wp; every operation returns an interval that
contains the exact image of its operand intervals, so a final interval is
a rigorous two-sided bound and residual comparisons can never be fooled by
rounding.  The only analytic truncation is the arctangent series tail,
which is covered by the alternating-series bound.

Arctangents reduce by the half-angle rewrite

    arctan(t) = 2*arctan(t / (1 + sqrt(1 + t**2)))

until |t| <= 1/2; the rewrite is valid for every real t and at most a
handful of steps are needed regardless of magnitude, after which the
series Sum (-1)^k t^(2k+1) / (2k+1) converges geometrically (ratio <= ~1/4).

pi itself comes from Euler's 5*arctan(1/7) + 2*arctan(3/79) = pi/4
(``_PI_BOOTSTRAP``); the exact fold proves that identity before the first
interval pi is built, so no numeric result feeds the exact path.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import isqrt

from .odot import fold_terms
from .values import Surd, Value

__all__ = ["FixedPointContext", "pi_interval"]

# (coeff, arg) terms of Euler's identity, summing to pi/4.
_PI_BOOTSTRAP = ((5, Fraction(1, 7)), (2, Fraction(3, 79)))

Interval = tuple[int, int]


def _fdiv(a: int, b: int) -> int:
    if b < 0:
        a, b = -a, -b
    return a // b


def _cdiv(a: int, b: int) -> int:
    if b < 0:
        a, b = -a, -b
    return -((-a) // b)


class FixedPointContext:
    """Interval operations at a fixed working precision of wp digits."""

    def __init__(self, wp: int):
        if wp < 1:
            raise ValueError("working precision must be positive")
        self.wp = wp
        self.scale = 10**wp

    # -- conversions ----------------------------------------------------

    def from_int(self, n: int) -> Interval:
        return (n * self.scale, n * self.scale)

    def from_fraction(self, fr: Fraction) -> Interval:
        num = fr.numerator * self.scale
        return (_fdiv(num, fr.denominator), _cdiv(num, fr.denominator))

    def from_value(self, v: Value) -> Interval:
        if isinstance(v, Surd):
            root = self.sqrt(self.from_int(v.d))
            return self.add(
                self.from_fraction(v.a), self.mul(self.from_fraction(v.b), root)
            )
        return self.from_fraction(Fraction(v))

    # -- ring operations ------------------------------------------------

    def neg(self, u: Interval) -> Interval:
        return (-u[1], -u[0])

    def add(self, u: Interval, v: Interval) -> Interval:
        return (u[0] + v[0], u[1] + v[1])

    def sub(self, u: Interval, v: Interval) -> Interval:
        return (u[0] - v[1], u[1] - v[0])

    def mul(self, u: Interval, v: Interval) -> Interval:
        prods = (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])
        return (_fdiv(min(prods), self.scale), _cdiv(max(prods), self.scale))

    def mul_int(self, u: Interval, k: int) -> Interval:
        if k < 0:
            return (u[1] * k, u[0] * k)
        return (u[0] * k, u[1] * k)

    def div_int(self, u: Interval, k: int) -> Interval:
        if k < 0:
            u, k = self.neg(u), -k
        return (_fdiv(u[0], k), _cdiv(u[1], k))

    def div(self, u: Interval, v: Interval) -> Interval:
        if v[0] <= 0 <= v[1]:
            raise ZeroDivisionError("interval denominator contains zero")
        quots = []
        for a in u:
            for b in v:
                quots.append((a * self.scale, b))
        return (
            min(_fdiv(a, b) for a, b in quots),
            max(_cdiv(a, b) for a, b in quots),
        )

    def sqrt(self, u: Interval) -> Interval:
        if u[1] < 0:
            raise ValueError("square root of a negative interval")
        lo = max(u[0], 0) * self.scale
        hi = u[1] * self.scale
        r = isqrt(hi)
        return (isqrt(lo), r if r * r == hi else r + 1)

    # -- arctangent -----------------------------------------------------

    def atan(self, u: Interval) -> Interval:
        doublings = 0
        one = self.from_int(1)
        while max(abs(u[0]), abs(u[1])) * 2 > self.scale:
            if doublings > 64:
                raise RuntimeError("argument reduction failed to contract")
            root = self.sqrt(self.add(one, self.mul(u, u)))
            u = self.div(u, self.add(one, root))
            doublings += 1
        x2 = self.mul(u, u)
        acc = u
        term = u
        k = 1
        while True:
            term = self.neg(self.mul(term, x2))
            contrib = self.div_int(term, 2 * k + 1)
            bound = max(abs(contrib[0]), abs(contrib[1]))
            if bound <= 2:
                # alternating series: the dropped tail is within the first
                # omitted term, which `bound` encloses
                acc = (acc[0] - bound, acc[1] + bound)
                break
            acc = self.add(acc, contrib)
            k += 1
        return self.mul_int(acc, 1 << doublings)


@functools.cache
def _prove_pi_bootstrap() -> None:
    if fold_terms(_PI_BOOTSTRAP).to_pi_multiple() != Fraction(1, 4):
        raise RuntimeError("the pi bootstrap identity failed its exact check")


@functools.lru_cache(maxsize=8)
def pi_interval(wp: int) -> Interval:
    _prove_pi_bootstrap()
    ctx = FixedPointContext(wp)
    quarter: Interval = (0, 0)
    for coeff, arg in _PI_BOOTSTRAP:
        arm = ctx.atan(ctx.from_fraction(arg))
        quarter = ctx.add(quarter, ctx.mul_int(arm, coeff))
    return ctx.mul_int(quarter, 4)
