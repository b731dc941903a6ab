"""Exact arithmetic over the rationals and real quadratic fields Q(sqrt(d)).

A *Value* is either a :class:`fractions.Fraction` or a :class:`Surd`
``a + b*sqrt(d)`` with rational ``a``, ``b`` and squarefree integer
``d >= 2``.  A Surd stores the integer form (A + B*sqrt(d))/C, C > 0 and
gcd(A, B, C) = 1, and reads ``a`` and ``b`` off it as Fractions.  Canonical
form is enforced everywhere: radicands are reduced to their squarefree core,
and a surd whose irrational part vanishes is demoted to a plain
``Fraction``.  Equal values therefore always have equal representations,
and equality/hashing are structural.

Values are immutable and every operation is a pure function, so the whole
module is safe for unrestricted concurrent use.  Mixing two different
radicands in one expression raises :class:`IncompatibleFieldError` rather
than silently extending to a degree-4 field.

Every Surd operation (``+ - * /``, comparisons, powers, ``value_sqrt``)
reads the stored form through ``_ints``, runs one integer formula, with
signs by exact case analysis and no float, and leaves through
``_from_ints``, the one builder of a Surd, which reduces with one gcd.
The Gaussian squaring loop ``_gauss_pow`` raises re + i*im to the n-th
power with no gcd, re and im being int pairs (x, y) for x + y*sqrt(d), for
``Surd.__pow__`` (im = 0), ``sequences.uv_pair`` and ``odot._fold``.
For an angle (re > 0) ``_turn`` takes quarter turns after each product
until -re < im <= re, h counting them, which keeps j*arg(z) =
arg(pair) + h*pi/2 exact: squaring an argument in (-pi/4, pi/4] gives one
in (-pi/2, pi/2], and a factor z, of argument in (-pi/2, pi/2), leaves it
in (-pi, pi), at most two quarter turns away.
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
    ``__init__`` through ``_set``; one that stores another form in its slots
    names its public fields, views of the slots, in ``__match_args__``.
    Records compare equal when they are of one class with equal slots, hash
    by their slots, and take no assignment or deletion once built; repr,
    copies and pickles read the public fields, and copies and pickles
    rebuild through the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls.__slots__)
        cls.__match_args__ = cls.__dict__.get("__match_args__", cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


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


def _comparison(test):
    """A Surd comparison: `test` of the sign of s - t against 0."""

    def compare(s, t):
        if (forms := _forms(s, t)) is None:
            return NotImplemented
        A, B, C, X, Y, Z, d = forms
        return test(_sign(A * Z - X * C, B * Z - Y * C, d), 0)

    return compare


class Surd(_Record):
    """The exact real number a + b*sqrt(d), stored as (A + B*sqrt(d))/C.

    The constructor takes a canonical surd: d squarefree and >= 2, b != 0.
    Use :func:`surd_normalize` to build a Value from raw (a, b, d) data.
    The slots hold the ints A, B, C, C > 0 and gcd(A, B, C) = 1, and d, so
    every route to one value stores one form; ``a`` and ``b`` are
    read-only Fraction views of it.  Arithmetic accepts ints, Fractions and
    Surds over the same d, and demotes to Fraction whenever the sqrt(d) part
    cancels.
    """

    __slots__ = ("_A", "_B", "_C", "d")
    __match_args__ = ("a", "b", "d")

    def __new__(cls, a: Fraction, b: Fraction, d: int):
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
        (p, q), (r, s) = a.as_integer_ratio(), b.as_integer_ratio()
        return _from_ints(p * s, r * q, q * s, d)

    a = property(lambda self: Fraction(self._A, self._C), doc="The rational part, a Fraction.")
    b = property(lambda self: Fraction(self._B, self._C), doc="The coefficient of sqrt(d), a Fraction.")

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other) -> Value:
        if (forms := _forms(self, other)) is None:
            return NotImplemented
        A, B, C, X, Y, Z, d = forms
        return _from_ints(A * Z + X * C, B * Z + Y * C, C * Z, d)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return _from_ints(-self._A, -self._B, self._C, self.d, reduced=True)

    def __pos__(self) -> "Surd":
        return self

    def __sub__(self, other) -> Value:
        if (forms := _forms(self, other)) is None:
            return NotImplemented
        A, B, C, X, Y, Z, d = forms
        return _from_ints(A * Z - X * C, B * Z - Y * C, C * Z, d)

    def __rsub__(self, other) -> Value:
        if (forms := _forms(self, other)) is None:
            return NotImplemented
        A, B, C, X, Y, Z, d = forms
        return _from_ints(X * C - A * Z, Y * C - B * Z, C * Z, d)

    def __mul__(self, other) -> Value:
        if (forms := _forms(self, other)) is None:
            return NotImplemented
        A, B, C, X, Y, Z, d = forms
        return _from_ints(*_mul((A, B), (X, Y), d), C * Z, d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        return _quotient((self._C, 0), (self._A, self._B), self.d)

    def __truediv__(self, other) -> Value:
        if (forms := _forms(self, other)) is None:
            return NotImplemented
        A, B, C, X, Y, Z, d = forms
        return _quotient((A * Z, B * Z), (C * X, C * Y), d)

    def __rtruediv__(self, other) -> Value:
        if (forms := _forms(self, other)) is None:
            return NotImplemented
        A, B, C, X, Y, Z, d = forms
        return _quotient((C * X, C * Y), (A * Z, B * Z), d)

    def __pow__(self, n: int) -> Value:
        # (A + B*sqrt(d))^|n| over C^n, or C^|n| over it for n < 0
        if not isinstance(n, int):
            return NotImplemented
        A, B, C, d = _ints(self)
        power, _, _ = _gauss_pow((A, B), (0, 0), abs(n), d, turn=False)
        return _from_ints(*power, C**n, d) if n >= 0 else _quotient((C**-n, 0), power, d)

    def conjugate(self) -> "Surd":
        return _from_ints(self._A, -self._B, self._C, self.d, reduced=True)

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        return value_sign(self)

    __lt__, __le__, __gt__, __ge__ = map(_comparison, (operator.lt, operator.le, operator.gt, operator.ge))

    def __abs__(self) -> "Surd":
        return self if self.sign() >= 0 else -self

    def __float__(self) -> float:
        p, q = _ratio(self)
        return p / q  # 0.0 below float range; OverflowError above it

    def __str__(self) -> str:
        return format_value(self)


Value = Fraction | Surd


def _ints(v: Value | int) -> tuple[int, int, int, int]:
    """Ints (A, B, C, d), C > 0, with v = (A + B*sqrt(d))/C, B = d = 0 for a
    Fraction or an int: the one integer form that every surd operation reads,
    a Surd's own slots."""
    if isinstance(v, Surd):
        return v._A, v._B, v._C, v.d
    return v.numerator, 0, v.denominator, 0


def _forms(s: Surd, t) -> tuple[int, ...] | None:
    """(A, B, C, X, Y, Z, d) with s = (A + B*sqrt(d))/C and t = (X + Y*sqrt(d))/Z
    over one field, C, Z > 0; None unless t is an int, a Fraction or a Surd."""
    if not isinstance(t, (int, Fraction, Surd)):
        return None
    (A, B, C, d), (X, Y, Z, e) = _ints(s), _ints(t)
    return A, B, C, X, Y, Z, _field(d, e)


def _from_ints(x: int, y: int, c: int, d: int, reduced: bool = False) -> Value:
    """(x + y*sqrt(d))/c, c != 0 and d squarefree, as a Value: the inverse of
    _ints and the one builder of a Surd, a Fraction for y = 0 or d = 1.

    One gcd reduces the form, the denominator first: it is often the short
    part, as in phi_power's (L + F*sqrt(5))/2, and a short first argument
    ends the gcd at once.  `reduced` says that
    gcd(x, y, c) = 1 and c > 0 hold already, as after a sign flip.  The
    checks of the constructor are skipped: arithmetic on canonical surds
    keeps d, so it never needs to factor it again.
    """
    if not y or d == 1:
        return Fraction(x + y, c)
    g = 1 if reduced else math.gcd(c, x, y) * ((c > 0) - (c < 0))  # c = 0 divides by g = 0
    s = object.__new__(Surd)
    for name, n in zip(Surd.__slots__, (x // g, y // g, c // g, d)):
        _set(s, name, n)
    return s


def _field(d: int, e: int) -> int:
    """The radicand of one field holding sqrt(d) and sqrt(e), 0 for Q."""
    if d and e and d != e:
        raise IncompatibleFieldError(f"cannot mix sqrt({_int_text(d)}) with sqrt({_int_text(e)})")
    return d or e


def _sign(x: int, y: int, d: int) -> int:
    """Sign of x + y*sqrt(d): that of y when x shares it, else that of the
    larger of x^2 and y^2*d, never equal as sqrt(d) is irrational."""
    if y == 0:
        return (x > 0) - (x < 0)
    sy = 1 if y > 0 else -1
    return sy if x * sy >= 0 or x * x < y * y * d else -sy


def _mul(p, q, d: int) -> tuple[int, int]:
    """(x + y*sqrt(d))(u + v*sqrt(d)) on int pairs (x, y), (u, v)."""
    (x, y), (u, v) = p, q
    return x * u + y * v * d, x * v + y * u


def _quotient(p, q, d: int) -> Value:
    """The Value p/q, q != 0: p times the conjugate of q over its norm,
    never 0 as sqrt(d) is irrational."""
    x, y = q
    if y == 0:
        return _from_ints(*p, x, d)
    return _from_ints(*_mul(p, (x, -y), d), x * x - y * y * d, d)


def _gauss_pow(re, im, n: int, d: int, turn: bool = True):
    """(a, b, h) with (re + i*im)^n = i^h * (a + i*b), all over Z[sqrt(d)],
    by left-to-right squaring; h = 0 without `turn`.  With `turn` and
    re > 0, -a < b <= a and n*arg(re + i*im) = arg(a + i*b) + h*pi/2."""
    a, b, h = (1, 0), (0, 0), 0
    for bit in bin(n)[2:]:
        (x, y), (u, v) = a, b  # (a + ib)^2 = (a + b)(a - b) + 2iab
        a, (u, v) = _mul((x + u, y + v), (x - u, y - v), d), _mul(a, b, d)
        b, h = (2 * u, 2 * v), 2 * h
        if bit == "1":
            a, b = _gauss_mul(a, b, re, im, d)
        if turn:
            a, b, k = _turn(a, b, d)
            h += k
    return a, b, h


def _gauss_mul(a, b, c, e, d: int):
    """(a + ib)(c + ie) = (ac - be) + i(ae + bc)."""
    (x, y), (u, v), (p, q), (r, s) = _mul(a, c, d), _mul(b, e, d), _mul(a, e, d), _mul(b, c, d)
    return (x - u, y - v), (p + r, q + s)


def _turn(a, b, d: int):
    """(a', b', k) with a + ib = i^k * (a' + ib') != 0, -a' < b' <= a'."""
    k = 0
    while not (_sign(a[0] + b[0], a[1] + b[1], d) > 0 and _sign(a[0] - b[0], a[1] - b[1], d) >= 0):
        if _sign(*b, d) > 0:  # clockwise: times -i
            a, b, k = b, (-a[0], -a[1]), k + 1
        else:  # counterclockwise: times i
            a, b, k = (-b[0], -b[1]), a, k - 1
    return a, b, k


def _ratio(v: Value) -> tuple[int, int]:
    """Ints (p, q), q > 0, with p/q the value exactly for a Fraction and
    within a relative 2^-64 for a Surd.

    Over ints a surd is (A + B*sqrt(d))/C, and X = 2^64*(|A| + |B|*sqrt(d))
    floored is off by under 1 in at least 2^64.  With A and B of opposite
    signs the value is the norm A^2 - B^2*d over C*(A - B*sqrt(d)), whose
    two parts add, so no digit cancels.
    """
    A, B, C, d = _ints(v)
    if B == 0:
        return A, C
    X = (abs(A) << 64) + math.isqrt(B * B * d << 128)
    if A * B >= 0:
        return (X if B > 0 else -X), C << 64
    norm = A * A - B * B * d
    return (norm if A > 0 else -norm) << 64, C * X


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
    (p, q), (r, t) = a.as_integer_ratio(), b.as_integer_ratio()
    return _from_ints(p * t, r * q * s, q * t, core)


def value_sign(x: Value) -> int:
    """Exact sign in {-1, 0, +1}, decided without floating point."""
    A, B, _, d = _ints(as_value(x, "x"))
    return _sign(A, B, d)


def value_sqrt(x: Value) -> Value:
    """Square root of a nonnegative Value, if it exists as a Value.

    For rational x the result always exists (a Fraction or a Surd).  For a
    surd x the root must live in the same field Q(sqrt(d)); otherwise
    UnsupportedRadicalError is raised.
    """
    x = as_value(x, "x")
    A, B, C, d = _ints(x)
    if _sign(A, B, d) < 0:
        raise UnsupportedRadicalError("negative radicand")
    if B:
        # (c + e*sqrt(d))^2 = x needs c^2 + e^2*d = A/C and 2ce = B/C, so
        # c^2 = (A +- N)/(2C) with N^2 = A^2 - B^2*d, c != 0 as B != 0:
        # c = M/(2C) with M^2 = 2C(A +- N) and e = B/M, up to sign
        norm = A * A - B * B * d
        N = math.isqrt(max(norm, 0))
        for t in (2 * C * (A + N), 2 * C * (A - N)):
            M = math.isqrt(max(t, 0))
            if N * N == norm and M * M == t:
                return _from_ints(M * M, 2 * C * B, 2 * C * M * _sign(M * M, 2 * C * B, d), d)
        raise UnsupportedRadicalError(
            f"sqrt of {format_value(x)} does not lie in Q(sqrt({_int_text(d)}))"
        )
    # p/q in lowest terms: sqrt(sp^2*cp / (sq^2*cq)) = sp/(sq*cq) * sqrt(cp*cq),
    # and cp*cq is squarefree because p and q are coprime
    sp, cp = _squarefree_decompose(x.numerator)
    sq, cq = _squarefree_decompose(x.denominator)
    return _from_ints(0, sp, sq * cq, cp * cq)
