"""Independent routes the tests play against the package's own.

* The literal winding formula of the paper: k from floor(T) and the
  fractional part of T = |pi/4 - n*arctan(1/x)| / pi, evaluated in interval
  arithmetic.  The package decides k by the exact fold instead.
* The generic order-2 recurrence W(alpha, beta, p, q), which u_n +- v_n,
  Lucas and Fibonacci numbers all satisfy.
* The binomial expansion of (x + i)^n evaluated by Horner, against the
  package's powering by squaring.
* Angle sums by the tangent rule on Values and multiples by double-and-add
  over it, against the package's one Gaussian loop on integer pairs.
* The partial sum of Euler's arctangent series by Horner's rule on one
  integer fraction, against the digit engine's capped product tree.
* Sign, inverse, product and powers of surds as chains of Fraction
  products on the parts a and b, against the package's one integer form
  (A + B*sqrt(d))/C.
* The surd operators, comparisons and square roots on the Fraction parts
  a and b of each operand, with Fraction square roots, against the
  package's integer formulas on (A + B*sqrt(d))/C.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from arctanforge.fixedpoint import FixedPointContext, pi_interval
from arctanforge.odot import NormalAngle, _check_pow_args
from arctanforge.sequences import UVPair, uv_coefficients
from arctanforge.values import Surd, Value, as_value, surd_normalize


@dataclass(frozen=True)
class WindingInput:
    """Diagnostic record for the literal winding formula.

    T = |pi/4 - n*arctan(1/x)| / pi, carried as a midpoint of a rigorous
    enclosure; only floor(T) and the position of its fractional part
    relative to 1/2 matter.
    """

    n: int
    x: Value
    T: Fraction


def _winding_literal_at(n: int, x: Value, wp: int) -> tuple[int, Fraction] | None:
    # One refinement pass; None means wp was too coarse to classify.
    ctx = FixedPointContext(wp)
    pi_lo, pi_hi = pi_interval(wp)
    a_lo, a_hi = ctx.atan(1 / x)
    # n*A(1/x) - pi/4 between an integer floor and ceiling (n >= 1)
    diff = (n * a_lo + (-pi_hi // 4), n * a_hi - pi_lo // 4)
    if diff[1] < 0:
        sgn = -1
        absdiff = (-diff[1], -diff[0])
    elif diff[0] > 0:
        sgn = 1
        absdiff = diff
    else:
        return None
    # |diff|/pi, both bounds positive
    T = (absdiff[0] * ctx.scale // pi_hi, -(-absdiff[1] * ctx.scale // pi_lo))
    fl = T[0] // ctx.scale
    if T[1] // ctx.scale != fl:
        return None
    frac = (T[0] - fl * ctx.scale, T[1] - fl * ctx.scale)
    if 2 * frac[0] > ctx.scale:
        chi = 1
    elif 2 * frac[1] < ctx.scale:
        chi = 0
    else:
        return None
    return sgn * (fl + chi), Fraction(T[0] + T[1], 2 * ctx.scale)


def _winding_literal(n: int, x) -> tuple[int, Fraction]:
    # (k, T) at the first wp that classifies T, doubling wp up to a cap
    x = as_value(x)
    _check_pow_args(x, n)
    wp = 40
    while wp <= 40 * 2**12:
        hit = _winding_literal_at(n, x, wp)
        if hit is not None:
            return hit
        wp *= 2
    raise RuntimeError(f"could not classify T for n={n}, x={x}")


def winding_correction_literal(n: int, x) -> int:
    """k via the characteristic-function formula
    sign(n*A(1/x) - pi/4) * (floor(T) + chi_(1/2,1)({T})),
    T = |pi/4 - n*A(1/x)|/pi, refined until the classification of T against
    the integer lattice and the point 1/2 is unambiguous.

    T is never exactly an integer or half-integer here (arctan of a
    rational or quadratic argument other than 0, +-1 is an irrational
    multiple of pi), so refinement terminates.
    """
    return _winding_literal(n, x)[0]


def winding_input(n: int, x) -> WindingInput:
    """Diagnostic T alongside (n, x), from the literal route's enclosure."""
    return WindingInput(n, as_value(x), _winding_literal(n, x)[1])


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order-2 recurrence a_n = p*a_(n-1) - q*a_(n-2) with a_0, a_1 given."""

    alpha: Value
    beta: Value
    p: Value
    q: Value


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


def uv_closed(n: int, x) -> UVPair:
    """(u_n, v_n) by evaluating the binomial expansion at x (Horner)."""
    cu, cv = uv_coefficients(n)
    x = as_value(x)
    u, v = Fraction(0), Fraction(0)
    for a, b in zip(reversed(cu), reversed(cv)):
        u, v = u * x + a, v * x + b
    return UVPair(u, v, n, x)


def angle_sum(x: NormalAngle, y: NormalAngle) -> NormalAngle:
    """x + y on tangents s and t: (s + t)/(1 - s*t) in Values,
    a half-turn more where s*t > 1 and a right angle where s*t = 1."""
    s, t, h = x.t, y.t, x.h + y.h
    if s == 0:
        return NormalAngle(t, h)
    sign = 1 if s > 0 else -1
    st = s * t
    if st == 1:
        return NormalAngle(Fraction(0), h + sign)
    if st > 1:
        h += 2 * sign
    return NormalAngle((s + t) / (1 - st), h)


def _reduced_sum(s: Fraction, t: Fraction, h: int) -> tuple[Fraction, int]:
    # the rule of angle_sum on numerators and denominators, with the one
    # reduction per sum that Fraction arithmetic makes
    a, b, c, d = s.numerator, s.denominator, t.numerator, t.denominator
    if a == 0:
        return t, h
    sign = 1 if a > 0 else -1
    den = b * d - a * c  # b*d*(1 - s*t)
    if den == 0:
        return Fraction(0), h + sign
    if den < 0:
        h += 2 * sign
    return Fraction(a * d + b * c, den), h


def angle_multiple(n: int, x: NormalAngle) -> NormalAngle:
    """n*x by left-to-right double-and-add, reducing after every sum."""
    if n == 0:
        return NormalAngle(Fraction(0), 0)
    t, h = (x.t, x.h) if n > 0 else (-x.t, -x.h)
    acc = t, h
    for bit in bin(abs(n))[3:]:
        acc = _reduced_sum(acc[0], acc[0], 2 * acc[1])
        if bit == "1":
            acc = _reduced_sum(acc[0], t, acc[1] + h)
    return NormalAngle(*acc)


def angle_double_and_add(n: int, x: NormalAngle) -> NormalAngle:
    """n*x by left-to-right double-and-add over angle_sum, on Fraction or
    Surd tangents: each sum takes the small original operand."""
    if n < 0:
        return angle_double_and_add(-n, -x)
    if n == 0:
        return NormalAngle(Fraction(0), 0)
    acc = x
    for bit in bin(n)[3:]:
        acc = angle_sum(acc, acc)
        if bit == "1":
            acc = angle_sum(acc, x)
    return acc


def euler_partial_floor(p: int, q: int, n: int, digits: int) -> int:
    """floor(10**digits * pq/r * Sum_{k<n} (2k)!!/(2k+1)!! * (p*p/r)**k),
    r = p*p + q*q, q > 0: the first n terms of Euler's series for
    arctan(p/q), nested by Horner's rule into one fraction num/den."""
    pp, r = p * p, p * p + q * q
    num = den = 1
    for k in range(n - 1, 0, -1):
        num, den = den * (2 * k + 1) * r + num * 2 * k * pp, den * (2 * k + 1) * r
    return p * q * num * 10**digits // (r * den)


def surd_sign(x: Surd) -> int:
    """Sign of a + b*sqrt(d) from the signs of a and b, and a*a against
    b*b*d in Fractions when they differ."""
    sa, sb = (x.a > 0) - (x.a < 0), (x.b > 0) - (x.b < 0)
    if sa == sb or sa == 0:
        return sb
    return sa if x.a * x.a > x.b * x.b * x.d else sb


def surd_inverse(x: Surd) -> Value:
    """1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a*a - b*b*d) in Fractions."""
    norm = x.a * x.a - x.b * x.b * x.d
    return surd_normalize(x.a / norm, -x.b / norm, x.d)


def surd_product(x: Surd, y: Surd) -> Value:
    """(a + b*sqrt(d))(c + e*sqrt(d)) = (ac + be*d) + (ae + bc)*sqrt(d)."""
    return surd_normalize(x.a * y.a + x.b * y.b * x.d, x.a * y.b + x.b * y.a, x.d)


def surd_power(x: Surd, n: int) -> Value:
    """x**n, n >= 0, by left-to-right binary powering on the Fraction parts
    (a, b) of a + b*sqrt(d), each product as in surd_product."""
    a, b, d = Fraction(1), Fraction(0), x.d
    for bit in bin(n)[2:]:
        a, b = a * a + b * b * d, 2 * a * b
        if bit == "1":
            a, b = a * x.a + b * x.b * d, a * x.b + b * x.a
    return surd_normalize(a, b, d)


def _parts(x) -> tuple[Fraction, Fraction, int]:
    """(a, b, d) with x = a + b*sqrt(d): b = d = 0 for an int or a Fraction."""
    if isinstance(x, Surd):
        return x.a, x.b, x.d
    return Fraction(x), Fraction(0), 0


def parts_arith(op, x, y) -> Value:
    """x op y, op one of + - * /, on the Fraction parts of operands over one
    field (ints, Fractions or Surds, one of them a Surd): a sum or
    difference part by part, a product as in surd_product, and a quotient
    as x times y's conjugate over y's norm."""
    (a, b, d), (c, e, f) = _parts(x), _parts(y)
    d = d or f
    if op is operator.truediv:
        norm = c * c - e * e * d
        op, c, e = operator.mul, c / norm, -e / norm
    if op is operator.mul:
        return surd_normalize(a * c + b * e * d, a * e + b * c, d)
    return surd_normalize(op(a, c), op(b, e), d)


def parts_cmp(x, y) -> int:
    """The sign of x - y in Fraction parts, which x < y and the other
    comparisons test against 0."""
    diff = parts_arith(operator.sub, x, y)
    return surd_sign(diff) if isinstance(diff, Surd) else (diff > 0) - (diff < 0)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact rational square root of q >= 0, or None."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def parts_sqrt(x: Surd) -> Surd | None:
    """The nonnegative square root of x in Q(sqrt(d)), or None, solving
    (c + e*sqrt(d))^2 = a + b*sqrt(d) over the rationals: c^2 + e^2 d = a and
    2ce = b, so c^2 is a root t of 4t^2 - 4at + b^2 d, t != 0 as b != 0, and
    the root is c + e*sqrt(d), e = b/(2c), up to sign."""
    disc = _fraction_sqrt(x.a * x.a - x.b * x.b * x.d)
    if disc is not None:
        for t in ((x.a + disc) / 2, (x.a - disc) / 2):
            c = _fraction_sqrt(t)
            if c is not None:
                root = surd_normalize(c, x.b / (2 * c), x.d)
                return root if surd_sign(root) > 0 else -root
    return None
