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
import operator
from fractions import Fraction

from .errors import (
    IncompatibleFieldError,
    InvalidArgumentError,
    InvalidRadicandError,
    UnsupportedRadicalError,
    check_int,
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


_set = object.__setattr__  # fills a record's slots past its __setattr__


def _repr(v) -> str:
    """repr(v) with every int and Fraction, also inside tuples, written by
    _int_text, so that no field size reaches the int-str limit."""
    if isinstance(v, tuple):
        return "(" + ", ".join(map(_repr, v)) + ("," if len(v) == 1 else "") + ")"
    if isinstance(v, Fraction):
        return f"Fraction({_int_text(v.numerator)}, {_int_text(v.denominator)})"
    return _int_text(v) if isinstance(v, int) else repr(v)


class _Record:
    """Base of the package's immutable records: a plain class, so defining
    one compiles no generated methods, as a frozen dataclass would.

    A subclass names its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``_set``.  Records compare equal when they are of
    one class with equal fields, hash by their fields, and take no assignment
    or deletion once built; copies and pickles rebuild them through the
    constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


# trial division stops at the first bound that certifies the cofactor;
# below the last bound's cube every radicand is exact
_TRIAL_BOUNDS = (10**4, 10**6)
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

    Factors up to the first of _TRIAL_BOUNDS are divided out.  The cofactor
    is certified if it is a square, or below the bound's cube and so a
    product of at most two distinct primes, or a proven prime; otherwise
    trial division goes on to the next bound.  A cofactor still uncertified
    after the last bound raises InvalidRadicandError, since its square part
    cannot be found quickly.
    """
    r = math.isqrt(d)
    if r * r == d:
        return r, 1
    radicand, s, core = d, 1, 1
    f = 2
    for bound in _TRIAL_BOUNDS:
        while f <= bound and f * f <= d:
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
        if d < bound**3 or (d < _MR_LIMIT and _is_prime(d)):
            return s, core * d
    raise InvalidRadicandError(
        f"cannot certify radicand {_int_text(radicand)} as squarefree: its cofactor "
        f"{_int_text(d)} has no prime factor up to {_TRIAL_BOUNDS[-1]} and is not a proven prime"
    )


class Surd(_Record):
    """The exact real number a + b*sqrt(d).

    Instances must already be canonical: d squarefree and >= 2, b != 0.
    Use :func:`surd_normalize` to build a Value from raw (a, b, d) data.
    Arithmetic accepts ints, Fractions and Surds over the same d, and
    demotes to Fraction whenever the sqrt(d) part cancels.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        a, b = as_value(a, "a", surd=False), as_value(b, "b", surd=False)
        check_int(d, "d")
        if d < 2:
            raise InvalidRadicandError(f"radicand must be >= 2, got {_int_text(d)}")
        _, core = _squarefree_decompose(d)
        if core != d:
            raise InvalidRadicandError(
                f"radicand {_int_text(d)} is not squarefree; use surd_normalize()"
            )
        if b == 0:
            raise InvalidRadicandError("b = 0 is rational; use surd_normalize()")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "d", d)

    # -- field arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "Surd | Fraction | None":
        if isinstance(other, Surd):
            if other.d != self.d:
                raise IncompatibleFieldError(
                    f"cannot mix sqrt({_int_text(self.d)}) with "
                    f"sqrt({_int_text(other.d)})"
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
            return _make(self.a * other, self.b * other, self.d)
        (A, B, C), (X, Y, Z), d = _ints(self), _ints(other), self.d
        return _make(Fraction(A * X + B * Y * d, C * Z), Fraction(A * Y + B * X, C * Z), d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # C/(A + B*sqrt(d)) = C*(A - B*sqrt(d)) / (A^2 - B^2 d); the norm is
        # never zero because sqrt(d) is irrational and B != 0.
        A, B, C = _ints(self)
        norm = A * A - B * B * self.d
        return _surd(Fraction(C * A, norm), Fraction(-C * B, norm), self.d)

    def __truediv__(self, other) -> Value:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if isinstance(other, Fraction):
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
        # left-to-right binary powering: square, then multiply on a set bit
        result: Value = Fraction(1)
        for bit in bin(n)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def conjugate(self) -> "Surd":
        return _surd(self.a, -self.b, self.d)

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        A, B, _ = _ints(self)
        sb = 1 if B > 0 else -1
        if A * sb >= 0:
            return sb
        # Opposite signs: compare A^2 against B^2 d.  Equality would force
        # sqrt(d) rational, impossible for squarefree d >= 2.
        return -sb if A * A > B * B * self.d else sb

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

    def __float__(self) -> float:
        p, q = _ratio(self)
        return p / q  # 0.0 below float range; OverflowError above it

    def __str__(self) -> str:
        return format_value(self)


Value = Fraction | Surd


def _ints(s: Surd) -> tuple[int, int, int]:
    """Ints (A, B, C), C > 0, with s = (A + B*sqrt(d))/C: the one integer
    form that the exact surd primitives read."""
    a, b = s.a, s.b
    return a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator


def _ratio(v: Value) -> tuple[int, int]:
    """Ints (p, q), q > 0, with p/q the value exactly for a Fraction and
    within a relative 2^-64 for a Surd.

    Over ints a surd is (A + B*sqrt(d))/C, and X = 2^64*(|A| + |B|*sqrt(d))
    floored is off by under 1 in at least 2^64.  With A and B of opposite
    signs the value is the norm A^2 - B^2*d over C*(A - B*sqrt(d)), whose
    two parts add, so no digit cancels.
    """
    if not isinstance(v, Surd):
        return v.numerator, v.denominator
    A, B, C = _ints(v)
    X = (abs(A) << 64) + math.isqrt(B * B * v.d << 128)
    if A * B >= 0:
        return (X if B > 0 else -X), C << 64
    norm = A * A - B * B * v.d
    return (norm if A > 0 else -norm) << 64, C * X


def _surd(a: Fraction, b: Fraction, d: int) -> Surd:
    """A Surd from parts already canonical (Fractions, b != 0, d squarefree
    and >= 2), skipping the checks of the public constructor: arithmetic on
    canonical surds keeps d, so it never needs to factor it again."""
    s = object.__new__(Surd)
    _set(s, "a", a)
    _set(s, "b", b)
    _set(s, "d", d)
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
    v = as_value(v, "v", surd=False)
    text = _int_text(v.numerator)
    return text if v.denominator == 1 else f"{text}/{_int_text(v.denominator)}"


def as_value(x, name: str = "value", surd: bool = True) -> Value:
    """The exact value x as a Fraction, or as itself if it is a Surd and
    `surd` allows one: the one gate for user values.

    Only an int (not a bool), a Fraction or a Surd is exact.  Anything else,
    a float or a Decimal too, raises InvalidArgumentError naming the
    argument and never its value.
    """
    if isinstance(x, Fraction) or surd and isinstance(x, Surd):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    kinds = "an int, a Fraction or a Surd" if surd else "an int or a Fraction"
    raise InvalidArgumentError(f"{name} must be {kinds}")


def surd_normalize(a, b, d: int) -> Value:
    """Canonicalize a + b*sqrt(d): extract square factors of d, demote if rational.

    d must be a positive int; a and b rational.
    """
    a, b = as_value(a, "a", surd=False), as_value(b, "b", surd=False)
    check_int(d, "d")
    if d <= 0:
        raise InvalidRadicandError("radicand must be a positive integer")
    s, core = _squarefree_decompose(d)
    return _make(a, b * s, core)


def value_sign(x: Value) -> int:
    """Exact sign in {-1, 0, +1}, decided without floating point."""
    if isinstance(x, Surd):
        return x.sign()
    x = as_value(x, "x")
    return (x > 0) - (x < 0)


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
    x = as_value(x, "x")
    if value_sign(x) < 0:
        raise UnsupportedRadicalError("negative radicand")
    if isinstance(x, Surd):
        # Solve (c + e*sqrt(d))^2 = a + b*sqrt(d) over the rationals:
        # c^2 + e^2 d = a and 2ce = b, so c^2 is a root t of 4t^2 - 4at + b^2 d.
        # t = 0 would make b zero, so any rational c = sqrt(t) > 0 with
        # e = b/(2c) solves both, and the root is c + e*sqrt(d) up to sign.
        disc = _fraction_sqrt(x.a * x.a - x.b * x.b * x.d)
        if disc is not None:
            for t in ((x.a + disc) / 2, (x.a - disc) / 2):
                c = _fraction_sqrt(t)
                if c is not None:
                    root = _surd(c, x.b / (2 * c), x.d)
                    return root if root.sign() > 0 else -root
        raise UnsupportedRadicalError(
            f"sqrt of {format_value(x)} does not lie in Q(sqrt({_int_text(x.d)}))"
        )
    # p/q in lowest terms: sqrt(sp^2*cp / (sq^2*cq)) = sp/(sq*cq) * sqrt(cp*cq),
    # and cp*cq is squarefree because p and q are coprime
    sp, cp = _squarefree_decompose(x.numerator)
    sq, cq = _squarefree_decompose(x.denominator)
    return _make(Fraction(0), Fraction(sp, sq * cq), cp * cq)
