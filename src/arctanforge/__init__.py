"""Exact arctangent identities for pi: generation, verification, digits.

The package works over exact values only: big rationals and quadratic
surds a + b*sqrt(d).  Identities of the form

    c_1*arctan(t_1) + ... + c_r*arctan(t_r) = rhs*pi

are produced by several generator families, proved or refuted by an exact
angle fold with winding counts, cross-checked by rigorous interval
arithmetic, and turned into pi digit runs by binary splitting, for surd
arguments as for rational ones.
"""

from .engine import (
    DigitResult,
    lehmer_measure,
    pi_digits,
)
from .errors import (
    ArctanForgeError,
    DegenerateArgumentError,
    DegenerateIdentityError,
    IdentitySyntaxError,
    IncompatibleFieldError,
    InconsistentInputError,
    InvalidArgumentError,
    InvalidRadicandError,
    RightAngleError,
    UnsupportedRadicalError,
)
from .generator import (
    ArctanTerm,
    Identity,
    diff_identity,
    golden_family,
    half_turn,
    machin_pair,
    quad_reduce,
)
from .odot import (
    NormalAngle,
    OdotPolynomial,
    fold_terms,
    odot,
    odot_pow,
    root_poly,
)
from .sequences import (
    lucas,
    phi_power,
    uv_pair,
)
from .textio import (
    IdentityDocument,
    format_document,
    format_identity,
    format_value,
    identity_from_dict,
    identity_to_dict,
    parse_document,
    parse_identity,
    parse_value,
)
from .values import (
    Surd,
    Value,
    surd_normalize,
    value_sign,
    value_sqrt,
)
from .verifier import Verdict, verify_exact, verify_numeric

__version__ = "0.1.0"

__all__ = [
    "ArctanForgeError",
    "ArctanTerm",
    "DegenerateArgumentError",
    "DegenerateIdentityError",
    "DigitResult",
    "Identity",
    "IdentityDocument",
    "IdentitySyntaxError",
    "IncompatibleFieldError",
    "InconsistentInputError",
    "InvalidArgumentError",
    "InvalidRadicandError",
    "NormalAngle",
    "OdotPolynomial",
    "RightAngleError",
    "Surd",
    "UnsupportedRadicalError",
    "Value",
    "Verdict",
    "diff_identity",
    "fold_terms",
    "format_document",
    "format_identity",
    "format_value",
    "golden_family",
    "half_turn",
    "identity_from_dict",
    "identity_to_dict",
    "lehmer_measure",
    "lucas",
    "machin_pair",
    "odot",
    "odot_pow",
    "parse_document",
    "parse_identity",
    "parse_value",
    "phi_power",
    "pi_digits",
    "quad_reduce",
    "root_poly",
    "surd_normalize",
    "uv_pair",
    "value_sign",
    "value_sqrt",
    "verify_exact",
    "verify_numeric",
]
