"""Command-line driver.

Subcommands mirror the library: gen/quad/golden/half/diff produce identity
lines, rootpoly prints composition-root polynomials, verify checks a file
of identities, digits runs the pi engine, measure scores formulas.  Every
subcommand takes --json.  Exit status: 0 success, 1 verification failure,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .engine import lehmer_measure, pi_digits
from .errors import ArctanForgeError
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
    format_document,
    format_identity,
    format_value,
    identity_to_dict,
    parse_document,
    parse_value,
)
from .values import surd_normalize, value_sign
from .verifier import verify_exact, verify_numeric

Entry = tuple[Identity, "tuple[tuple[str, str], ...] | None"]


def _int_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None
    if b < a:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return range(a, b + 1)


def _surd_triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected a,b,d")
    try:
        return Fraction(parts[0]), Fraction(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad surd triple {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="arctanforge",
        description="Generate, verify and exploit exact arctangent identities for pi.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name: str, help_: str) -> argparse.ArgumentParser:
        s = sub.add_parser(name, help=help_)
        s.add_argument("--json", action="store_true", help="emit JSON")
        return s

    gen = cmd("gen", "two-term identities n*atan(1/x) + atan(...)")
    gen.add_argument("--n", type=int)
    gen.add_argument("--x")
    gen.add_argument("--n-range", type=_int_range, metavar="A..B")
    gen.add_argument("--x-range", type=_int_range, metavar="A..B")

    quad = cmd("quad", "reduction at a root of t^2 - h*t + k")
    quad.add_argument("--h", type=int, required=True)
    quad.add_argument("--k", type=int, required=True)
    quad.add_argument("--alpha", type=_surd_triple, required=True, metavar="a,b,d")

    golden = cmd("golden", "golden-mean and Lucas families")
    golden.add_argument(
        "--family",
        required=True,
        choices=[k.replace("_", "-") for k in GOLDEN_KINDS],
    )
    golden.add_argument("--k", type=int, required=True)

    half = cmd("half", "the pair 2*atan(-x +- sqrt(1+x^2)) + atan(x) = +-pi/2")
    half.add_argument("--x", required=True)

    diff = cmd("diff", "atan(f) - atan((f-1)/(f+1))")
    diff.add_argument("--f", required=True)

    rootpoly = cmd("rootpoly", "polynomial whose roots compose n-fold to x")
    rootpoly.add_argument("--n", type=int, required=True)
    rootpoly.add_argument("--x", required=True)

    verify = cmd("verify", "verify identities from a file ('-' for stdin)")
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--numeric", action="store_true")
    verify.add_argument("--digits", type=int, default=50)
    verify.add_argument("--file", required=True)

    digits = cmd("digits", "pi digits from an identity")
    digits.add_argument("--file")
    digits.add_argument("--n", type=int)
    digits.add_argument("--x")
    digits.add_argument("--digits", type=int, default=100)

    measure = cmd("measure", "Lehmer cost of identities from a file")
    measure.add_argument("--file", required=True)

    return p


def _read_document(path: str) -> IdentityDocument:
    if path == "-":
        return parse_document(sys.stdin.read())
    with open(path, encoding="utf-8") as f:
        return parse_document(f.read())


def _emit_entries(entries: list[Entry], as_json: bool) -> None:
    if as_json:
        print(json.dumps([identity_to_dict(i, a) for i, a in entries], indent=2))
    else:
        print(format_document(IdentityDocument(tuple(entries))), end="")


def _cmd_gen(args) -> int:
    entries: list[Entry] = []
    if args.n is not None and args.x is not None:
        entries.append((machin_pair(args.n, parse_value(args.x)), None))
    elif args.n_range is not None and args.x_range is not None:
        for n in args.n_range:
            for x in args.x_range:
                ann = (("family", "machin"), ("n", str(n)), ("x", str(x)))
                entries.append((machin_pair(n, Fraction(x)), ann))
    else:
        print("error: need --n and --x, or --n-range and --x-range", file=sys.stderr)
        return 2
    _emit_entries(entries, args.json)
    return 0


def _cmd_quad(args) -> int:
    a, b, d = args.alpha
    alpha = surd_normalize(a, b, d)
    _emit_entries([(quad_reduce(args.h, args.k, alpha), None)], args.json)
    return 0


def _cmd_golden(args) -> int:
    ident = golden_family(args.family.replace("-", "_"), args.k)
    ann = (("family", args.family), ("k", str(args.k)))
    _emit_entries([(ident, ann)], args.json)
    return 0


def _cmd_half(args) -> int:
    plus, minus = half_turn(parse_value(args.x))
    _emit_entries([(plus, None), (minus, None)], args.json)
    return 0


def _cmd_diff(args) -> int:
    _emit_entries([(diff_identity(parse_value(args.f)), None)], args.json)
    return 0


def _poly_text(poly: OdotPolynomial) -> str:
    pieces: list[str] = []
    for power in range(poly.degree, -1, -1):
        c = poly.coefficients[power]
        if value_sign(c) == 0:
            continue
        mag = c if value_sign(c) > 0 else -c
        var = "" if power == 0 else ("z" if power == 1 else f"z^{power}")
        if var and mag == 1:
            body = var
        elif var:
            body = f"{format_value(mag)}*{var}"
        else:
            body = format_value(mag)
        if not pieces:
            pieces.append(body if value_sign(c) > 0 else f"-{body}")
        else:
            pieces.append(f" {'+' if value_sign(c) > 0 else '-'} {body}")
    return "".join(pieces) or "0"


def _cmd_rootpoly(args) -> int:
    poly = root_poly(args.n, parse_value(args.x))
    try:
        roots = poly.roots()
    except ArctanForgeError:
        roots = None
    if args.json:
        print(
            json.dumps(
                {
                    "n": poly.n,
                    "x": format_value(poly.x),
                    "coefficients": [format_value(c) for c in poly.coefficients],
                    "roots": None if roots is None else [format_value(r) for r in roots],
                },
                indent=2,
            )
        )
    else:
        print(_poly_text(poly))
        for r in roots or ():
            print(f"root: {format_value(r)}")
    return 0


def _cmd_verify(args) -> int:
    doc = _read_document(args.file)
    if not doc.entries:
        # exit 0 means "verified", so an empty document must not slip through
        print("error: no identities in file", file=sys.stderr)
        return 2
    numeric = args.numeric
    failed = False
    rows = []
    for ident, _ann in doc.entries:
        v = verify_numeric(ident, args.digits) if numeric else verify_exact(ident)
        status = "holds" if v.holds else ("indeterminate" if v.indeterminate else "fails")
        failed = failed or not v.holds
        if args.json:
            rows.append(
                {
                    "identity": identity_to_dict(ident),
                    "holds": v.holds,
                    "indeterminate": v.indeterminate,
                    "actual": str(v.actual),
                    "residual": v.numeric_residual,
                }
            )
        else:
            line = f"{status}: {format_identity(ident)}"
            if numeric and v.numeric_residual:
                line += f"  [residual {v.numeric_residual}]"
            print(line)
    if args.json:
        print(json.dumps(rows, indent=2))
    return 1 if failed else 0


def _cmd_digits(args) -> int:
    if args.file:
        doc = _read_document(args.file)
        if not doc.entries:
            print("error: no identities in file", file=sys.stderr)
            return 2
        ident = doc.entries[0][0]
    elif args.n is not None and args.x is not None:
        ident = machin_pair(args.n, parse_value(args.x))
    else:
        print("error: need --file, or --n and --x", file=sys.stderr)
        return 2
    result = pi_digits(ident, args.digits)
    if args.json:
        print(
            json.dumps(
                {
                    "digits": result.digits,
                    "count": args.digits,
                    "elapsed": result.elapsed,
                    "unrounded": result.unrounded,
                    "identity": identity_to_dict(result.source),
                },
                indent=2,
            )
        )
    else:
        print(result.digits)
    if result.unrounded:
        print("warning: last digit unconfirmed (guard region degenerate)", file=sys.stderr)
        return 1
    return 0


def _cmd_measure(args) -> int:
    doc = _read_document(args.file)
    rows = []
    for ident, _ann in doc.entries:
        m = lehmer_measure(ident)
        if args.json:
            rows.append(
                {"identity": identity_to_dict(ident), "measure": None if m == float("inf") else m}
            )
        else:
            print(f"{m:.6f}  {format_identity(ident)}")
    if args.json:
        print(json.dumps(rows, indent=2))
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "quad": _cmd_quad,
    "golden": _cmd_golden,
    "half": _cmd_half,
    "diff": _cmd_diff,
    "rootpoly": _cmd_rootpoly,
    "verify": _cmd_verify,
    "digits": _cmd_digits,
    "measure": _cmd_measure,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return code if isinstance(code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except ArctanForgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
