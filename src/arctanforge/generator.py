"""Families of exact arctangent identities for pi.

Each generator returns an :class:`Identity` whose right side is recomputed
by the exact fold rather than copied from a closed-form display: several of
the classical displays silently assume the winding correction k is zero,
and the fold is what actually decides it.

Families:

* ``machin_pair``: n*A(1/x) + A((u_n - v_n)/(u_n + v_n)) = (1/4 + k)*pi,
  the two-term family parametrized over n and x with winding k(n, x).
* ``quad_reduce``: 2*A(1/alpha) + A(1/y) = (1/4 + k)*pi for a quadratic
  irrational alpha, where y = (t^2 + 2t - 1)/(t^2 - 2t - 1) is collapsed
  modulo alpha's minimal polynomial t^2 - h*t + kq before evaluating.
* ``golden_family``: the golden-mean and Lucas-number specializations.
* ``half_turn``: 2*A(-x +- sqrt(1 + x^2)) + A(x) = +-pi/2.
* ``diff_identity``: A(f) - A((f - 1)/(f + 1)) = pi/4 or -3*pi/4.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DegenerateArgumentError,
    IncompatibleFieldError,
    InconsistentInputError,
    InvalidArgumentError,
    RightAngleError,
    UnsupportedRadicalError,
    check_int,
)
from .odot import NormalAngle, _check_pow_args, fold_terms
from .sequences import phi_power, uv_pair
from .values import Surd, Value, _Record, _set, as_value, format_value, value_sign, value_sqrt

__all__ = [
    "ArctanTerm",
    "Identity",
    "machin_pair",
    "quad_reduce",
    "golden_family",
    "half_turn",
    "diff_identity",
]

GOLDEN_KINDS = ("odd", "even", "lucas_minus", "lucas_plus", "only_lucas")


class ArctanTerm(_Record):
    """One summand coeff*arctan(arg)."""

    __slots__ = ("coeff", "arg")

    def __init__(self, coeff: int, arg: Value):
        check_int(coeff, "coeff")
        if coeff == 0:
            raise InvalidArgumentError("zero coefficient")
        _set(self, "coeff", coeff)
        _set(self, "arg", as_value(arg, "arg"))


class Identity(_Record):
    """Sum of arctangent terms claimed to equal rhs*pi.

    The claim is data, not a guarantee: the verifier decides it.  Every
    identity produced by this module's generators folds exactly to its rhs.
    """

    __slots__ = ("terms", "rhs")

    def __init__(self, terms: tuple[ArctanTerm, ...], rhs: Fraction):
        terms = tuple(terms)
        if not terms:
            raise InvalidArgumentError("an identity needs at least one term")
        if not all(isinstance(t, ArctanTerm) for t in terms):
            raise InvalidArgumentError("every term must be an ArctanTerm")
        _set(self, "terms", terms)
        _set(self, "rhs", as_value(rhs, "rhs", surd=False))

    def fold(self) -> NormalAngle:
        return fold_terms((t.coeff, t.arg) for t in self.terms)


def _rhs_from_fold(terms) -> Fraction:
    angle = fold_terms((t.coeff, t.arg) for t in terms)
    r = angle.to_pi_multiple()
    if r is None:
        raise RuntimeError(f"fold landed off the quarter-pi lattice: {angle}")
    return r


def machin_pair(n: int, x) -> Identity:
    """n*A(1/x) + A((u_n - v_n)/(u_n + v_n)) with fold-computed rhs."""
    x = as_value(x, "x")
    _check_pow_args(x, n)
    if value_sign(x) == 0:
        raise DegenerateArgumentError("x = 0 has no reciprocal argument")
    pair = uv_pair(n, x)
    total = pair.u + pair.v
    if value_sign(total) == 0:
        raise RightAngleError(f"u_n + v_n vanishes at x = {format_value(x)}")
    terms = (ArctanTerm(n, 1 / x), ArctanTerm(1, (pair.u - pair.v) / total))
    return Identity(terms, _rhs_from_fold(terms))


def quad_reduce(h: int, kq: int, alpha: Surd) -> Identity:
    """2*A(1/alpha) + A(1/y) at a root alpha of t^2 - h*t + kq.

    y = (t^2 + 2t - 1)/(t^2 - 2t - 1) is first reduced modulo the minimal
    polynomial, so numerator and denominator are the linear forms
    (h + 2)t - (1 + kq) and (h - 2)t - (1 + kq); the quotient collapses in
    the field and often lands in the rationals.
    """
    check_int(h, "h")
    check_int(kq, "kq")
    if not isinstance(alpha, Surd):
        raise InconsistentInputError("alpha must be a quadratic irrational")
    if value_sign(alpha * alpha - h * alpha + kq) != 0:
        poly = f"t^2 - {format_value(h)}*t + {format_value(kq)}"
        raise InconsistentInputError(f"{alpha} is not a root of {poly}")
    num = (h + 2) * alpha - (1 + kq)  # x^2 + 2x - 1 reduced
    den = (h - 2) * alpha - (1 + kq)  # x^2 - 2x - 1 reduced
    if value_sign(num) == 0:
        raise RightAngleError("y = 0: the companion term is a right angle")
    terms = (ArctanTerm(2, 1 / alpha), ArctanTerm(1, den / num))
    return Identity(terms, _rhs_from_fold(terms))


def golden_family(kind: str, k: int) -> Identity:
    """Golden-mean and Lucas-number identity families, indexed by k >= 0.

    odd:         2*A(1/phi^(2k+1)) + A((L-2)/(L+2)) with L = L_(2k+1)
    even:        2*A(1/phi^(2k)) + A(reduced y), k >= 1
    lucas_minus: A(L/2) - 2*A(phi^(2k+1)) = -pi/2
    lucas_plus:  A(L/2) + 2*A(1/phi^(2k+1)) = pi/2
    only_lucas:  A(L/2) - A((L-2)/(L+2)) = pi/4
    """
    check_int(k, "k", 1 if kind == "even" else 0)
    if kind not in GOLDEN_KINDS:
        raise InvalidArgumentError(f"unknown kind {kind!r}; expected one of {GOLDEN_KINDS}")
    m = 2 * k + (kind != "even")
    phi = phi_power(m)  # (L + F*sqrt(5))/2 with L = L_m, a Surd as m >= 1
    if kind in ("odd", "even"):
        return quad_reduce(int(2 * phi.a), (-1) ** m, phi)
    if kind == "only_lucas":
        return diff_identity(phi.a)
    if kind == "lucas_minus":
        terms = (ArctanTerm(1, phi.a), ArctanTerm(-2, phi))
    else:
        terms = (ArctanTerm(1, phi.a), ArctanTerm(2, 1 / phi))
    return Identity(terms, _rhs_from_fold(terms))


def half_turn(x) -> tuple[Identity, Identity]:
    """The pair 2*A(-x + r) + A(x) = pi/2 and 2*A(-x - r) + A(x) = -pi/2
    with r = sqrt(1 + x^2); requires the root to exist as a Value."""
    x = as_value(x, "x")
    r = value_sqrt(1 + x * x)
    out = []
    try:
        for root in (r, -r):
            terms = (ArctanTerm(2, -x + root), ArctanTerm(1, x))
            out.append(Identity(terms, _rhs_from_fold(terms)))
    except IncompatibleFieldError:
        raise UnsupportedRadicalError(
            f"sqrt(1 + x^2) lies outside the field of x = {format_value(x)}"
        ) from None
    return (out[0], out[1])


def diff_identity(f) -> Identity:
    """A(f) - A(g) for g = (f - 1)/(f + 1): pi/4 when f > -1, -3*pi/4 when
    f < -1 (the fold decides, consistent with limits at the pole)."""
    f = as_value(f, "f")
    if value_sign(f + 1) == 0:
        raise DegenerateArgumentError("g is undefined at f = -1")
    g = (f - 1) / (f + 1)
    terms = (ArctanTerm(1, f), ArctanTerm(-1, g))
    return Identity(terms, _rhs_from_fold(terms))
