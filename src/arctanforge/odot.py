"""The arctangent composition product and exact angle arithmetic.

Tangent addition makes the real line (minus the right-angle singularities)
a commutative group under ``x (*) y = (x + y) / (1 - x*y)``; arctangents
then add up to an integer number of half-turns:

    arctan(x) + arctan(y) = arctan(x (*) y)            if x*y < 1
    arctan(x) + arctan(y) = arctan(x (*) y) + sign(x)*pi   if x*y > 1
    arctan(x) + arctan(y) = sign(x)*pi/2               if x*y = 1

:class:`NormalAngle` carries (t, h) for arctan(t) + h*(pi/2).  With
t = (A + B*sqrt(d))/C, C > 0, arctan(t) is the argument of
C + i(A + B*sqrt(d)) (Todd, Amer. Math. Monthly 1949), so angles are
Gaussian pairs over Z[sqrt(d)] with counted quarter turns
(``values._gauss_pow``).  ``fold_terms``, ``A + B`` and ``n * A`` run one
loop, ``_fold``: one product per fold, of every term's pair raised to its
coefficient, and one reduction, by ``_angle``, to an even turn count unless
at a right angle, as the rule above does; the operands' h add outside.
``canonical()`` turns the pair of t.  In a fold t = +-1 gives quarter
turns, and ``n * A`` keeps a closed form for it.

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
from .values import Surd, Value, _field, _gauss_mul, _gauss_pow, _ints, _quotient, _Record, _set
from .values import _sign, _turn, as_value
from .values import format_value, value_sign, value_sqrt

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
    return _tangent(_fold(((1, x), (1, y)), 0))


def odot_pow(x, n: int) -> Value:
    """x composed with itself n times.

    Equals u_n(x)/v_n(x) for odd n and -v_n(x)/u_n(x) for even n, and agrees
    with the iterated product whenever no intermediate right angle occurs.
    """
    x = as_value(x, "x")
    _check_pow_args(x, n)
    return _tangent(_fold(((n, x),), 0))


def _tangent(angle: NormalAngle) -> Value:
    """tan(arctan(t) + h*(pi/2)) of a sum or multiple, whose h is odd only
    at a right angle."""
    if angle.h % 2:
        raise RightAngleError("the angle is an odd multiple of pi/2")
    return angle.t


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
    unique, so two angles are equal exactly when their ``canonical()`` forms
    are.
    """

    __slots__ = ("t", "h")

    def __init__(self, t: Value, h: int):
        _set(self, "t", as_value(t, "t"))
        check_int(h, "h")
        _set(self, "h", h)

    def canonical(self) -> "NormalAngle":
        A, B, C, d = _ints(self.t)
        a, b, k = _turn((C, 0), (A, B), d)
        return NormalAngle(_quotient(b, a, d), self.h + k) if k else self

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
        return _fold(((1, self.t), (1, other.t)), self.h + other.h)

    def __neg__(self) -> "NormalAngle":
        return NormalAngle(-self.t, -self.h)

    def __rmul__(self, n: int) -> "NormalAngle":
        """n copies of the angle: arg((C + iT)^n) for t = T/C, plus n*h."""
        if not isinstance(n, int):
            return NotImplemented
        A, B, C, _ = _ints(self.t)
        if B == 0 and abs(A) == C:  # t = +-1: (s, s*(|n| - 1)/2) or (0, s*|n|/2)
            s, r = (A * n > 0) - (A * n < 0), n % 2
            return NormalAngle(Fraction(s * r), s * (abs(n) - r) // 2 + n * self.h)
        return _fold(((n, self.t),), n * self.h)

    def __float__(self) -> float:
        # the canonical tangent lies in (-1, 1], so its float never overflows
        c = self.canonical()
        return math.atan(float(c.t)) + c.h * math.pi / 2

    def __str__(self) -> str:
        return f"arctan({format_value(self.t)}) + {format_value(self.h)}*(pi/2)"


ZERO_ANGLE = NormalAngle(Fraction(0), 0)


def _angle(a, b, k: int, h: int, d: int) -> NormalAngle:
    """arg(a + ib) + (k + h)*pi/2, -a < b <= a, with k made even unless the
    angle is a right angle, (0, odd)."""
    if k % 2 and b != (0, 0):  # the quarter turn goes into -a/b
        a, b, k = (-b[0], -b[1]), a, k + _sign(*b, d)
    return NormalAngle(_quotient(b, a, d), k + h)


def _fold(terms, h: int) -> NormalAngle:
    """The sum of c*arctan(t) over (c, t) terms, plus h*pi/2: the argument of
    the product of (C + i(A + B*sqrt(d)))^c, one product per fold, turned
    after each factor and reduced once.  Every field is checked before any
    power.  t = +-1 gives quarter turns, as (1 +- i)^2 = +-2i, and a product
    that is a positive real (b = 0) is dropped, as its argument is 0."""
    forms, d = [(c, *_ints(t)) for c, t in terms], 0
    for *_, e in forms:
        d = _field(d, e)
    a, b, k = (1, 0), (0, 0), 0
    for c, A, B, C, _ in forms:
        m, T = abs(c), ((A, B) if c >= 0 else (-A, -B))  # the conjugate for c < 0
        if B == 0 and abs(A) == C:
            k, m = k + T[0] * (m // 2), m % 2
        x, y, j = _gauss_pow((C, 0), T, m, d) if m != 1 else ((C, 0), T, 0)
        if b != (0, 0):
            x, y = _gauss_mul(a, b, x, y, d)
        a, b, i = _turn(x, y, d)
        k += i + j
    return _angle(a, b, k, h, d)


def fold_terms(terms: Iterable[tuple[int, Value]]) -> NormalAngle:
    """Fold (coeff, arg) pairs from the zero angle: the sum of the angles
    coeff*arctan(arg), with exact right angles in the half-turn count, so
    folding is total.  One field must hold all arguments, checked first."""
    return _fold([(check_int(c, "coeff"), as_value(arg, "arg")) for c, arg in terms], 0)


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
