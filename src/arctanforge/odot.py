"""The arctangent composition product and exact angle arithmetic.

Tangent addition makes the real line (minus the right-angle singularities)
a commutative group under ``x (*) y = (x + y) / (1 - x*y)``; arctangents
then add up to an integer number of half-turns:

    arctan(x) + arctan(y) = arctan(x (*) y)            if x*y < 1
    arctan(x) + arctan(y) = arctan(x (*) y) + sign(x)*pi   if x*y > 1
    arctan(x) + arctan(y) = sign(x)*pi/2               if x*y = 1

:class:`NormalAngle` carries the pair (t, h) for the angle
arctan(t) + h*(pi/2), so the singular right angles stay representable while
plain Values never have to encode an infinite tangent.  With that, angles
are an abelian group: ``A + B`` applies the rule above with the winding
count tracked exactly, and ``n * A`` is double-and-add, so folding a term
coeff*arctan(arg) costs O(log|coeff|) additions.

Powers under the product reduce to the u/v sequences:

    (1/x)^(*n) = v_n(x) / u_n(x)
    x^(*n)     = u_n(x) / v_n(x)    for odd n,
               = -v_n(x) / u_n(x)   for even n,

and n-th roots of x are the real zeros of x*u_n(z) + v_n(z) (n even) or
x*v_n(z) - u_n(z) (n odd), exposed by :func:`root_poly`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .errors import (
    DegenerateArgumentError,
    RightAngleError,
    UnsupportedRadicalError,
    check_int,
)
from .sequences import uv_coefficients
from .values import Surd, Value, _Record, _set, as_value, format_value, value_sign, value_sqrt

__all__ = [
    "NormalAngle",
    "OdotPolynomial",
    "odot",
    "odot_pow",
    "fold_terms",
    "root_poly",
]


def odot(x, y) -> Value:
    """Exact (x + y) / (1 - x*y); raises RightAngleError when x*y = 1."""
    x, y = as_value(x, "x"), as_value(y, "y")
    return _tangent(NormalAngle(x, 0) + NormalAngle(y, 0))


def odot_pow(x, n: int) -> Value:
    """x composed with itself n times.

    Equals u_n(x)/v_n(x) for odd n and -v_n(x)/u_n(x) for even n, and agrees
    with the iterated product whenever no intermediate right angle occurs.
    """
    x = as_value(x, "x")
    _check_pow_args(x, n)
    return _tangent(n * NormalAngle(x, 0))


def _tangent(angle: NormalAngle) -> Value:
    """tan(arctan(t) + h*(pi/2)): t for even h, -1/t for odd h."""
    if angle.h % 2 == 0:
        return angle.t
    if value_sign(angle.t) == 0:
        raise RightAngleError("the angle is an odd multiple of pi/2")
    return -(1 / angle.t)


def _check_pow_args(x: Value, n: int) -> None:
    check_int(n, "n", 1)
    if isinstance(x, Fraction) and abs(x) == 1:
        raise DegenerateArgumentError("x = +-1 is excluded")


# r in (-1/4, 1/4] keyed by tan(r*pi), for every such r whose tangent is
# rational or quadratic: tan(r*pi) leaves every quadratic field unless the
# denominator of r divides 8 or 12 (Niven, Irrational Numbers, 1956, for the
# rational case), so together with the half-turns these are all the rational
# multiples of pi that a fold over Q or one Q(sqrt(d)) can reach.
_PI_MULTIPLES: dict[Value, Fraction] = {
    Fraction(0): Fraction(0),
    Fraction(1): Fraction(1, 4),
    Surd(0, Fraction(1, 3), 3): Fraction(1, 6),
    Surd(0, Fraction(-1, 3), 3): Fraction(-1, 6),
    Surd(-1, 1, 2): Fraction(1, 8),
    Surd(1, -1, 2): Fraction(-1, 8),
    Surd(2, -1, 3): Fraction(1, 12),
    Surd(-2, 1, 3): Fraction(-1, 12),
}


class NormalAngle(_Record):
    """The exact angle arctan(t) + h*(pi/2), h an integer half-turn count.

    The canonical representative keeps t in (-1, 1], i.e. the arctangent
    part in (-pi/4, pi/4]; in that range the representation of any angle is
    unique, which is what ``same_angle`` compares.
    """

    __slots__ = ("t", "h")

    def __init__(self, t: Value, h: int):
        _set(self, "t", as_value(t, "t"))
        check_int(h, "h")
        _set(self, "h", h)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.t, self.h) == (other.t, other.h)
        return NotImplemented

    def __hash__(self):
        return hash((self.t, self.h))

    def canonical(self) -> "NormalAngle":
        t, h = self.t, self.h
        s = value_sign(t)
        if s > 0 and value_sign(t - 1) > 0:  # t > 1
            return NormalAngle(-(1 / t), h + 1)
        if s < 0:
            c = value_sign(t + 1)
            if c < 0:  # t < -1
                return NormalAngle(-(1 / t), h - 1)
            if c == 0:  # t = -1
                return NormalAngle(Fraction(1), h - 1)
        return self

    def same_angle(self, other: "NormalAngle") -> bool:
        return self.canonical() == other.canonical()

    def to_pi_multiple(self) -> Fraction | None:
        """r with angle = r*pi, when the angle is such a rational multiple."""
        c = self.canonical()
        frac = _PI_MULTIPLES.get(c.t)
        if frac is None:
            return None
        return frac + Fraction(c.h, 2)

    def __add__(self, other: "NormalAngle") -> "NormalAngle":
        if not isinstance(other, NormalAngle):
            return NotImplemented
        s, y, h = self.t, other.t, self.h + other.h
        if s == 0:
            return NormalAngle(y, h)
        denom = 1 - s * y
        c = value_sign(denom)
        if c == 0:  # s*y = 1: an exact right angle
            return NormalAngle(Fraction(0), h + value_sign(s))
        if c < 0:  # s*y > 1: s and y share a sign, jump a half-turn
            h += 2 * value_sign(s)
        return NormalAngle((s + y) / denom, h)

    def __neg__(self) -> "NormalAngle":
        return NormalAngle(-self.t, -self.h)

    def __rmul__(self, n: int) -> "NormalAngle":
        """n copies of the angle by double-and-add: O(log|n|) additions."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (-n) * (-self)
        if n == 0:
            return ZERO_ANGLE
        acc = self  # left to right: each add takes the small original operand
        for bit in bin(n)[3:]:
            acc = acc + acc
            if bit == "1":
                acc = acc + self
        return acc

    def __float__(self) -> float:
        # the canonical tangent lies in (-1, 1], so its float never overflows
        c = self.canonical()
        return math.atan(float(c.t)) + c.h * math.pi / 2

    def __str__(self) -> str:
        return f"arctan({format_value(self.t)}) + {format_value(self.h)}*(pi/2)"


ZERO_ANGLE = NormalAngle(Fraction(0), 0)


def fold_terms(terms: Iterable[tuple[int, Value]]) -> NormalAngle:
    """Fold (coeff, arg) pairs from the zero angle: the sum of the angles
    coeff*arctan(arg), with exact right angles in the half-turn count, so
    folding is total."""
    state = ZERO_ANGLE
    for coeff, arg in terms:
        check_int(coeff, "coeff")
        state = state + coeff * NormalAngle(as_value(arg, "arg"), 0)
    return state


class OdotPolynomial(_Record):
    """Polynomial whose real roots are the n-th composition roots of x.

    coefficients[i] is the coefficient of z^i; the degree always equals the
    root order n.
    """

    __slots__ = ("coefficients", "n", "x")

    def __init__(self, coefficients: tuple[Value, ...], n: int, x: Value):
        _set(self, "coefficients", coefficients)
        _set(self, "n", n)
        _set(self, "x", x)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, z) -> Value:
        z = as_value(z, "z")
        acc: Value = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def roots(self) -> tuple[Value, ...]:
        """Exact roots, available for degree <= 2 (quadratic formula).

        Roots of higher-order polynomials are generally not quadratic surds,
        so none are produced.
        """
        coeffs = list(self.coefficients)
        while coeffs and value_sign(coeffs[-1]) == 0:
            coeffs.pop()
        if len(coeffs) > 3:
            raise UnsupportedRadicalError(
                "roots are only extracted for degree <= 2"
            )
        if len(coeffs) <= 1:
            return ()
        if len(coeffs) == 2:
            c0, c1 = coeffs
            return (-c0 / c1,)
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c2 * c0
        root = value_sqrt(disc)  # raises if outside the field
        return ((-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2))


def root_poly(n: int, x) -> OdotPolynomial:
    """Polynomial in z with z^(*n) = x: x*u_n(z) + v_n(z) for even n,
    x*v_n(z) - u_n(z) for odd n, from the binomial coefficients of (z + i)^n."""
    x = as_value(x, "x")
    _check_pow_args(x, n)
    u, v = uv_coefficients(n)
    if n % 2 == 0:
        coeffs = tuple(x * uc + vc for uc, vc in zip(u, v))
    else:
        coeffs = tuple(x * vc - uc for uc, vc in zip(u, v))
    return OdotPolynomial(coeffs, n, x)
