"""Command-line driver.

Subcommands mirror the library: gen/quad/golden/half/diff produce identity
lines, rootpoly prints composition-root polynomials, verify checks a file
of identities, digits runs the pi engine, measure scores formulas.  Every
subcommand takes --json.  Numeric options are read with the identity
grammar of `textio`.  Exit status: 0 success, 1 verification failure,
2 usage or input error, or a closed standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Callable
from fractions import Fraction

from .engine import lehmer_measure, pi_digits
from .errors import ArctanForgeError, IdentitySyntaxError, InvalidArgumentError
from .generator import (
    GOLDEN_KINDS,
    Identity,
    diff_identity,
    golden_family,
    half_turn,
    machin_pair,
    quad_reduce,
)
from .odot import OdotPolynomial, root_poly
from .textio import (
    IdentityDocument,
    _signed_sum,
    format_document,
    format_identity,
    format_value,
    identity_to_dict,
    parse_document,
    parse_value,
)
from .values import surd_normalize, value_sign
from .verifier import verify_exact, verify_numeric

# exit code, the payload --json prints, and the text lines printed otherwise
Result = tuple[int, object, list[str]]


def _as_int(text: str) -> int | None:
    """text as a number of the identity grammar, if that number is an integer."""
    try:
        v = parse_value(text)
    except IdentitySyntaxError:
        return None
    return v.numerator if isinstance(v, Fraction) and v.denominator == 1 else None


def _int(text: str) -> int:
    n = _as_int(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return n


def _int_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    a, b = _as_int(lo), _as_int(hi)
    if not sep or a is None or b is None:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    if b < a:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(a, b + 1)


def _surd_triple(text: str) -> tuple[Fraction, Fraction, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected a,b,d")
    try:
        a, b = parse_value(parts[0]), parse_value(parts[1])
    except IdentitySyntaxError:
        a = b = None
    d = _as_int(parts[2])
    if a is None or d is None:
        raise argparse.ArgumentTypeError(f"bad surd triple {text!r}")
    return a, b, d


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arctanforge",
        description="Generate, verify and exploit exact arctangent identities for pi.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_: str, run: Callable[..., Result]) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=help_)
        s.add_argument("--json", action="store_true", help="emit JSON")
        s.set_defaults(run=run)
        return s

    gen = cmd("gen", "two-term identities n*atan(1/x) + atan(...)", _cmd_gen)
    gen.add_argument("--n", type=_int)
    gen.add_argument("--x")
    gen.add_argument("--n-range", type=_int_range, metavar="A..B")
    gen.add_argument("--x-range", type=_int_range, metavar="A..B")

    quad = cmd("quad", "reduction at a root of t^2 - h*t + k", _cmd_quad)
    quad.add_argument("--h", type=_int, required=True)
    quad.add_argument("--k", type=_int, required=True)
    quad.add_argument("--alpha", type=_surd_triple, required=True, metavar="a,b,d")

    golden = cmd("golden", "golden-mean and Lucas families", _cmd_golden)
    families = [k.replace("_", "-") for k in GOLDEN_KINDS]
    golden.add_argument("--family", required=True, choices=families)
    golden.add_argument("--k", type=_int, required=True)

    half = cmd("half", "the pair 2*atan(-x +- sqrt(1+x^2)) + atan(x) = +-pi/2", _cmd_half)
    half.add_argument("--x", required=True)

    diff = cmd("diff", "atan(f) - atan((f-1)/(f+1))", _cmd_diff)
    diff.add_argument("--f", required=True)

    rootpoly = cmd("rootpoly", "polynomial whose roots compose n-fold to x", _cmd_rootpoly)
    rootpoly.add_argument("--n", type=_int, required=True)
    rootpoly.add_argument("--x", required=True)

    verify = cmd("verify", "verify identities from a file ('-' for stdin)", _cmd_verify)
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--numeric", action="store_true")
    verify.add_argument("--digits", type=_int, default=50)
    verify.add_argument("--file", required=True)

    digits = cmd("digits", "pi digits from an identity", _cmd_digits)
    digits.add_argument("--file")
    digits.add_argument("--n", type=_int)
    digits.add_argument("--x")
    digits.add_argument("--digits", type=_int, default=100)

    measure = cmd("measure", "Lehmer cost of identities from a file", _cmd_measure)
    measure.add_argument("--file", required=True)

    return p


def _read_document(path: str) -> IdentityDocument:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    doc = parse_document(text)
    if not doc.entries:
        # exit 0 means "verified", so an empty document must not slip through
        raise InvalidArgumentError("no identities in file")
    return doc


def _document(entries) -> Result:
    doc = IdentityDocument(tuple(entries))
    return 0, doc, format_document(doc).splitlines()


def _jsonable(obj):
    """JSON form of the library objects a payload holds."""
    if isinstance(obj, IdentityDocument):
        return [identity_to_dict(i, a) for i, a in obj.entries]
    if isinstance(obj, Identity):
        return identity_to_dict(obj)
    return format_value(obj)


def _cmd_gen(args) -> Result:
    if args.n is not None and args.x is not None:
        return _document([(machin_pair(args.n, parse_value(args.x)), None)])
    if args.n_range is None or args.x_range is None:
        raise InvalidArgumentError("need --n and --x, or --n-range and --x-range")
    return _document(
        (machin_pair(n, Fraction(x)), (("family", "machin"), ("n", str(n)), ("x", str(x))))
        for n in args.n_range
        for x in args.x_range
    )


def _cmd_quad(args) -> Result:
    alpha = surd_normalize(*args.alpha)
    return _document([(quad_reduce(args.h, args.k, alpha), None)])


def _cmd_golden(args) -> Result:
    ident = golden_family(args.family.replace("-", "_"), args.k)
    return _document([(ident, (("family", args.family), ("k", str(args.k))))])


def _cmd_half(args) -> Result:
    plus, minus = half_turn(parse_value(args.x))
    return _document([(plus, None), (minus, None)])


def _cmd_diff(args) -> Result:
    return _document([(diff_identity(parse_value(args.f)), None)])


def _poly_text(poly: OdotPolynomial) -> str:
    terms = []
    for power in range(poly.degree, -1, -1):
        c = poly.coefficients[power]
        sign = value_sign(c)
        if sign == 0:
            continue
        body = format_value(c if sign > 0 else -c)
        if power > 0:
            var = "z" if power == 1 else f"z^{power}"
            body = var if body == "1" else f"{body}*{var}"
        terms.append((sign, body))
    return _signed_sum(terms) or "0"


def _cmd_rootpoly(args) -> Result:
    poly = root_poly(args.n, parse_value(args.x))
    try:
        roots = poly.roots()
    except ArctanForgeError:
        roots = None
    payload = {"n": poly.n, "x": poly.x, "coefficients": poly.coefficients, "roots": roots}
    return 0, payload, [_poly_text(poly), *(f"root: {format_value(r)}" for r in roots or ())]


def _cmd_verify(args) -> Result:
    rows, lines = [], []
    for ident in _read_document(args.file).identities:
        v = verify_numeric(ident, args.digits) if args.numeric else verify_exact(ident)
        rows.append(
            {
                "identity": ident,
                "holds": v.holds,
                "indeterminate": v.indeterminate,
                "actual": None if v.actual is None else str(v.actual),
                "residual": v.numeric_residual,
            }
        )
        status = "holds" if v.holds else ("indeterminate" if v.indeterminate else "fails")
        line = f"{status}: {format_identity(ident)}"
        if v.numeric_residual:
            line += f"  [residual {v.numeric_residual}]"
        lines.append(line)
    return int(not all(r["holds"] for r in rows)), rows, lines


def _cmd_digits(args) -> Result:
    if args.file:
        ident = _read_document(args.file).identities[0]
    elif args.n is not None and args.x is not None:
        ident = machin_pair(args.n, parse_value(args.x))
    else:
        raise InvalidArgumentError("need --file, or --n and --x")
    result = pi_digits(ident, args.digits)
    if result.unrounded:
        print("warning: last digit unconfirmed (guard region degenerate)", file=sys.stderr)
    payload = {
        "digits": result.digits,
        "count": args.digits,
        "elapsed": result.elapsed,
        "unrounded": result.unrounded,
        "identity": result.source,
    }
    return int(result.unrounded), payload, [result.digits]


def _cmd_measure(args) -> Result:
    rows = [(i, lehmer_measure(i)) for i in _read_document(args.file).identities]
    payload = [{"identity": i, "measure": None if m == float("inf") else m} for i, m in rows]
    return 0, payload, [f"{m:.6f}  {format_identity(i)}" for i, m in rows]


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        code, payload, lines = args.run(args)
    except (ArctanForgeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    text = json.dumps(payload, indent=2, default=_jsonable) if args.json else "\n".join(lines)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone (`| head`): as the SIGPIPE note in the Python
        # docs does, point stdout at the null device so that the flush at
        # exit cannot fail again; an in-memory stdout has no descriptor
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 2
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
