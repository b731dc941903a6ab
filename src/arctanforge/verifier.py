"""Exact and numeric verdicts for arctangent identities.

The exact path folds the left side into a NormalAngle, reads off the
multiple of pi that angle is, if any, and compares it with the right side;
it is authoritative.  The numeric path
encloses each arctangent between two integers at scale 10**wp
(``FixedPointContext.atan``), sums c*arctan and -rhs*pi with integer floors
and ceilings, and checks the residual against a digit budget.  It
cross-checks the exact fold and refutes lines whose coefficients are too
large to fold, and it reports ``indeterminate`` instead of guessing when the
residual falls in the gray zone between clearly-zero and clearly-nonzero.

The numeric path is the interval route alone: it never folds the identity
it checks, so its verdict carries no folded angle (``actual`` is None).
It needs pi, which ``pi_interval`` builds from an identity that the exact
fold proves first, so the two routes stay independent: no numeric result
feeds the exact path.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import check_int
from .fixedpoint import FixedPointContext, _times, pi_interval
from .generator import Identity
from .odot import NormalAngle
from .values import _int_text, _Record, _set

__all__ = ["Verdict", "verify_exact", "verify_numeric", "DEFAULT_GUARD"]

DEFAULT_GUARD = 5


class Verdict(_Record):
    __slots__ = ("holds", "actual", "claimed_rhs", "numeric_residual", "indeterminate")

    def __init__(
        self,
        holds: bool,
        actual: NormalAngle | None,
        claimed_rhs: Fraction,
        numeric_residual: str | None = None,
        indeterminate: bool = False,
    ):
        _set(self, "holds", holds)
        _set(self, "actual", actual)
        _set(self, "claimed_rhs", claimed_rhs)
        _set(self, "numeric_residual", numeric_residual)
        _set(self, "indeterminate", indeterminate)


def verify_exact(identity: Identity) -> Verdict:
    """Fold the left side; holds iff the fold is the angle rhs*pi.

    Every right side gets a verdict.  A fold over Q or one Q(sqrt(d)) names a
    rational multiple of pi only on the lattice whose denominators divide 8
    or 12, since no other rational multiple of pi has a rational or
    quadratic tangent (Niven), so a right side off that lattice fails.
    """
    actual = identity.fold()
    return Verdict(actual.to_pi_multiple() == identity.rhs, actual, identity.rhs)


def _sci(n: int, wp: int) -> str:
    """Scientific-notation string of n/10**wp without float underflow."""
    if n == 0:
        return "0"
    sign = "-" if n < 0 else ""
    s = _int_text(abs(n))
    exp = len(s) - 1 - wp
    mant = s[0] if len(s) == 1 else s[0] + "." + s[1:6]
    return f"{sign}{mant}e{exp:+d}"


def verify_numeric(identity: Identity, digits: int) -> Verdict:
    """Integer enclosure of LHS - rhs*pi at `digits` decimal digits.

    holds iff the residual is certainly below 10**(-digits+g); a residual
    certainly above 10**(-g) refutes; anything in between (or an enclosure
    too wide to tell) comes back holds=False, indeterminate=True, and the
    caller may retry with more digits.  g is DEFAULT_GUARD (5 digits).
    """
    check_int(digits, "digits", 10)
    g = DEFAULT_GUARD
    wp = digits + g + 15
    ctx = FixedPointContext(wp)
    lo, hi = _times(pi_interval(wp), -identity.rhs)
    for term in identity.terms:
        a, b = _times(ctx.atan(term.arg), term.coeff)
        lo, hi = lo + a, hi + b

    mag_lo = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
    mag_hi = max(abs(lo), abs(hi))
    hold_bound = 10 ** (wp - digits + g)
    noise_bound = 10 ** (wp - g)
    if mag_hi < hold_bound:
        holds, indeterminate = True, False
    elif mag_lo >= noise_bound:
        holds, indeterminate = False, False
    else:
        holds, indeterminate = False, True

    mid = (lo + hi) // 2
    rad = (hi - lo + 1) // 2
    report = f"{_sci(mid, wp)} +/- {_sci(rad, wp)}"
    return Verdict(holds, None, identity.rhs, report, indeterminate)
