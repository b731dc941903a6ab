"""Exact arithmetic over the rationals and real quadratic fields Q(sqrt(d)).

A *Value* is either a :class:`fractions.Fraction` or a :class:`Surd`
``a + b*sqrt(d)`` with rational ``a``, ``b`` and squarefree integer
``d >= 2``.  Canonical form is enforced everywhere: radicands are reduced
to their squarefree core, and a surd whose irrational part vanishes is
demoted to a plain ``Fraction``.  Equal values therefore always have equal
representations, and equality/hashing are structural.

Values are immutable and every operation is a pure function, so the whole
module is safe for unrestricted concurrent use.  Mixing two different
radicands in one expression raises :class:`IncompatibleFieldError` rather
than silently extending to a degree-4 field.  Signs and comparisons are
decided by exact integer case analysis, never by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (
    IncompatibleFieldError,
    InvalidRadicandError,
    UnsupportedRadicalError,
)

__all__ = [
    "Surd",
    "Value",
    "surd_normalize",
    "value_sign",
    "value_sqrt",
]

_STR_DIGITS = 4000  # plain str()/int() below CPython's 4300-digit limit


def _int_text(n: int) -> str:
    """Decimal text of n at any size, split by halves (Brent-Zimmermann,
    Modern Computer Arithmetic 1.7); faster than CPython's quadratic str()."""
    if n < 0:
        return "-" + _int_text(-n)
    half = n.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    if half <= _STR_DIGITS // 2:
        return str(n)
    high, low = divmod(n, 10**half)
    return _int_text(high) + _int_text(low).zfill(half)


def _text_int(digits: str) -> int:
    """The inverse of _int_text on a string of decimal digits."""
    if len(digits) <= _STR_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _text_int(digits[:-half]) * 10**half + _text_int(digits[-half:])


_TRIAL_BOUND = 10**6  # trial division stops here; below its cube, all is exact
# The first 13 primes as Miller-Rabin bases decide primality of every n
# below 3317044064679887385961981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 41 below _MR_LIMIT."""
    e, odd = 0, n - 1
    while odd % 2 == 0:
        odd //= 2
        e += 1
    for a in _MR_BASES:
        y = pow(a, odd, n)
        if y == 1:
            continue
        for _ in range(e):  # for prime n, a**(odd * 2**r) = -1 for some r < e
            if y == n - 1:
                break
            y = y * y % n
        else:
            return False
    return True


def _squarefree_decompose(d: int) -> tuple[int, int]:
    """Write d >= 0 as s*s*core with core squarefree; return (s, core).

    Factors up to _TRIAL_BOUND are divided out.  The cofactor is then a
    square, or below the bound's cube and so a product of at most two
    distinct primes, or a proven prime; any other cofactor raises
    InvalidRadicandError, since its square part cannot be found quickly.
    """
    r = math.isqrt(d)
    if r * r == d:
        return r, 1
    radicand, s, core = d, 1, 1
    f = 2
    while f <= _TRIAL_BOUND and f * f <= d:
        if d % f == 0:
            e = 0
            while d % f == 0:
                d //= f
                e += 1
            s *= f ** (e // 2)
            if e & 1:
                core *= f
        f += 1 if f == 2 else 2
    r = math.isqrt(d)
    if r * r == d:
        return s * r, core
    if d < _TRIAL_BOUND**3 or (d < _MR_LIMIT and _is_prime(d)):
        return s, core * d
    raise InvalidRadicandError(
        f"cannot certify radicand {_int_text(radicand)} as squarefree: its cofactor "
        f"{_int_text(d)} has no prime factor up to {_TRIAL_BOUND} and is not a proven prime"
    )


@dataclass(frozen=True)
class Surd:
    """The exact real number a + b*sqrt(d).

    Instances must already be canonical: d squarefree and >= 2, b != 0.
    Use :func:`surd_normalize` to build a Value from raw (a, b, d) data.
    Arithmetic accepts ints, Fractions and Surds over the same d, and
    demotes to Fraction whenever the sqrt(d) part cancels.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if self.d < 2:
            raise InvalidRadicandError(f"radicand must be >= 2, got {self.d}")
        _, core = _squarefree_decompose(self.d)
        if core != self.d:
            raise InvalidRadicandError(
                f"radicand {self.d} is not squarefree; use surd_normalize()"
            )
        if self.b == 0:
            raise InvalidRadicandError("b = 0 is rational; use surd_normalize()")

    # -- field arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Surd | Fraction | None":
        if isinstance(other, Surd):
            if other.d != self.d:
                raise IncompatibleFieldError(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Fraction(other)
        return None

    def __add__(self, other) -> Value:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if isinstance(other, Fraction):
            return _surd(self.a + other, self.b, self.d)
        return _make(self.a + other.a, self.b + other.b, self.d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return _surd(-self.a, -self.b, self.d)

    def __pos__(self) -> "Surd":
        return self

    def __sub__(self, other) -> Value:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Value:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> Value:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if isinstance(other, Fraction):
            if other == 0:
                return Fraction(0)
            return _surd(self.a * other, self.b * other, self.d)
        return _make(
            self.a * other.a + self.b * other.b * self.d,
            self.a * other.b + self.b * other.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # 1/(a + b*sqrt(d)) = (a - b*sqrt(d)) / (a^2 - b^2 d); the norm is
        # never zero because sqrt(d) is irrational and b != 0.
        norm = self.a * self.a - self.b * self.b * self.d
        return _surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other) -> Value:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if isinstance(other, Fraction):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return _surd(self.a / other, self.b / other, self.d)
        return self * other.inverse()

    def __rtruediv__(self, other) -> Value:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> Value:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result: Value = Fraction(1)
        for _ in range(n):
            result = result * self
        return result

    def conjugate(self) -> "Surd":
        return _surd(self.a, -self.b, self.d)

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        sa = _fraction_sign(self.a)
        sb = _fraction_sign(self.b)
        if sa == sb or sa == 0:
            return sb
        if sb == 0:
            return sa
        # Opposite signs: compare a^2 against b^2 d.  Equality would force
        # sqrt(d) rational, impossible for squarefree d >= 2.
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    def _cmp(self, other) -> int:
        diff = self - other
        return value_sign(diff)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self) -> "Surd":
        return self if self.sign() >= 0 else -self

    def __bool__(self) -> bool:
        return True  # canonical surds are irrational, hence nonzero

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        return format_value(self)


Value = Union[Fraction, Surd]


def _fraction_sign(q: Fraction) -> int:
    if q > 0:
        return 1
    if q < 0:
        return -1
    return 0


def _surd(a: Fraction, b: Fraction, d: int) -> Surd:
    """A Surd from parts already canonical (Fractions, b != 0, d squarefree
    and >= 2), skipping the checks of the public constructor: arithmetic on
    canonical surds keeps d, so it never needs to factor it again."""
    s = object.__new__(Surd)
    object.__setattr__(s, "a", a)
    object.__setattr__(s, "b", b)
    object.__setattr__(s, "d", d)
    return s


def _make(a: Fraction, b: Fraction, d: int) -> Value:
    """Assemble a + b*sqrt(d) assuming d is already squarefree."""
    if b == 0 or d == 1:
        return a + b
    return _surd(a, b, d)


def format_value(v: Value) -> str:
    """Canonical text of a Value: ``p/q`` (``p`` when whole) or ``surd(a,b,d)``."""
    if isinstance(v, Surd):
        return f"surd({format_value(v.a)},{format_value(v.b)},{_int_text(v.d)})"
    v = Fraction(v)
    text = _int_text(v.numerator)
    return text if v.denominator == 1 else f"{text}/{_int_text(v.denominator)}"


def as_value(x) -> Value:
    """Coerce ints and Fractions to a Value; reject inexact types."""
    if isinstance(x, Surd):
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"not an exact value: {x!r}")


def surd_normalize(a, b, d: int) -> Value:
    """Canonicalize a + b*sqrt(d): extract square factors of d, demote if rational.

    d must be a positive integer; a and b rational.
    """
    if not isinstance(d, int) or d <= 0:
        raise InvalidRadicandError(f"radicand must be a positive integer, got {d!r}")
    a, b = Fraction(a), Fraction(b)
    s, core = _squarefree_decompose(d)
    return _make(a, b * s, core)


def value_sign(x: Value) -> int:
    """Exact sign in {-1, 0, +1}, decided without floating point."""
    if isinstance(x, Surd):
        return x.sign()
    return _fraction_sign(Fraction(x))


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact rational square root of q >= 0, or None."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def value_sqrt(x: Value) -> Value:
    """Square root of a nonnegative Value, if it exists as a Value.

    For rational x the result always exists (a Fraction or a Surd).  For a
    surd x the root must live in the same field Q(sqrt(d)); otherwise
    UnsupportedRadicalError is raised.
    """
    if value_sign(x) < 0:
        raise UnsupportedRadicalError("negative radicand")
    if isinstance(x, Surd):
        # Solve (c + e*sqrt(d))^2 = a + b*sqrt(d) over the rationals:
        # c^2 + e^2 d = a and 2ce = b, so c^2 is a root of 4t^2 - 4at + b^2 d.
        disc = _fraction_sqrt(x.a * x.a - x.b * x.b * x.d)
        if disc is not None:
            for c2 in ((x.a + disc) / 2, (x.a - disc) / 2):
                c = _fraction_sqrt(c2)
                if c is None or c == 0:
                    continue
                for cc in (c, -c):
                    e = x.b / (2 * cc)
                    if cc * cc + e * e * x.d == x.a:
                        root = _make(cc, e, x.d)
                        if value_sign(root) >= 0:
                            return root
        raise UnsupportedRadicalError(
            f"sqrt of {x} does not lie in Q(sqrt({x.d}))"
        )
    q = Fraction(x)
    # p/q in lowest terms: sqrt(sp^2*cp / (sq^2*cq)) = sp/(sq*cq) * sqrt(cp*cq),
    # and cp*cq is squarefree because p and q are coprime
    sp, cp = _squarefree_decompose(q.numerator)
    sq, cq = _squarefree_decompose(q.denominator)
    return _make(Fraction(0), Fraction(sp, sq * cq), cp * cq)
