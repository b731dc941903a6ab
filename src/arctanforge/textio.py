"""Line-oriented text format for identities.

One identity per line:

    7*atan(1/3) - atan(278/29) = 1/4*pi
    2*atan(surd(-1/2,1/2,5)) + atan(1/2) = 1/2*pi

`#` starts a comment; a comment of whitespace-separated key=value pairs
after an identity is parsed as annotations and round-trips.  Whitespace
between tokens is insignificant.  The canonical printed form renders a
coefficient-1 term with negative argument as `- atan(positive)`, so
printing after parsing is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import IdentitySyntaxError, InvalidRadicandError
from .generator import ArctanTerm, Identity
from .values import Value, _text_int, format_value, surd_normalize, value_sign

__all__ = [
    "IdentityDocument",
    "format_value",
    "parse_value",
    "format_identity",
    "parse_identity",
    "format_document",
    "parse_document",
    "identity_to_dict",
    "identity_from_dict",
]


def _canonical_terms(identity: Identity) -> list[tuple[int, Value]]:
    # sign of a coefficient-1 term lives on the sign, not in the argument
    out = []
    for term in identity.terms:
        c, arg = term.coeff, term.arg
        if abs(c) == 1 and value_sign(arg) < 0:
            c, arg = -c, -arg
        out.append((c, arg))
    return out


def _signed_sum(terms) -> str:
    """Join (sign, body) pairs as `body + body - body`; a negative first
    term takes a bare leading `-`."""
    parts: list[str] = []
    for sign, body in terms:
        if parts:
            parts.append(f" {'+' if sign > 0 else '-'} {body}")
        else:
            parts.append(body if sign > 0 else f"-{body}")
    return "".join(parts)


def format_identity(identity: Identity) -> str:
    terms = []
    for c, arg in _canonical_terms(identity):
        body = f"atan({format_value(arg)})"
        terms.append((c, body if abs(c) == 1 else f"{format_value(abs(c))}*{body}"))
    return _signed_sum(terms) + f" = {format_value(identity.rhs)}*pi"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.n = len(text)

    def err(self, message: str, col: int | None = None):
        raise IdentitySyntaxError(message, (self.i if col is None else col) + 1)

    def skip_ws(self) -> None:
        while self.i < self.n and self.text[self.i] in " \t":
            self.i += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.i] if self.i < self.n else ""

    def eof(self) -> bool:
        return self.peek() == ""

    def lit(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.i):
            self.i += len(s)
            return True
        return False

    def expect(self, s: str) -> None:
        if not self.lit(s):
            self.err(f"expected {s!r}")

    def uint(self) -> int:
        self.skip_ws()
        j = self.i
        while j < self.n and "0" <= self.text[j] <= "9":
            j += 1
        if j == self.i:
            self.err("expected an unsigned integer")
        out = _text_int(self.text[self.i : j])
        self.i = j
        return out

    def rational(self) -> Fraction:
        neg = self.lit("-")
        num = self.uint()
        den = 1
        if self.lit("/"):
            col = self.i
            den = self.uint()
            if den == 0:
                self.err("zero denominator", col)
        return Fraction(-num if neg else num, den)

    def value(self) -> Value:
        start = self.i
        if self.lit("surd"):
            self.expect("(")
            a = self.rational()
            self.expect(",")
            b = self.rational()
            self.expect(",")
            d = self.uint()
            self.expect(")")
            try:
                return surd_normalize(a, b, d)
            except InvalidRadicandError as e:
                self.err(str(e), start)
        return self.rational()


def parse_value(text: str) -> Value:
    """A single value: `p/q` or `surd(a,b,d)` (radicand normalized)."""
    sc = _Scanner(text)
    v = sc.value()
    if not sc.eof():
        sc.err("unexpected trailing input")
    return v


def _term(sc: _Scanner) -> tuple[int, Value]:
    coeff = 1
    col = sc.i
    if "0" <= sc.peek() <= "9":
        col = sc.i
        coeff = sc.uint()
        if coeff == 0:
            sc.err("zero coefficient", col)
        sc.expect("*")
    sc.expect("atan")
    sc.expect("(")
    v = sc.value()
    sc.expect(")")
    return coeff, v


def parse_identity(line: str) -> Identity:
    """One line of the grammar; trailing `#` comments are ignored."""
    body = line.partition("#")[0]
    sc = _Scanner(body)
    terms: list[ArctanTerm] = []
    sign = -1 if sc.lit("-") else 1
    c, v = _term(sc)
    terms.append(ArctanTerm(sign * c, v))
    while True:
        ch = sc.peek()
        if ch == "+" or ch == "-":
            sc.lit(ch)
            c, v = _term(sc)
            terms.append(ArctanTerm((1 if ch == "+" else -1) * c, v))
        else:
            break
    sc.expect("=")
    rhs = sc.rational()
    sc.expect("*")
    sc.expect("pi")
    if not sc.eof():
        sc.err("unexpected trailing input")
    return Identity(tuple(terms), rhs)


Annotations = tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class IdentityDocument:
    """Ordered identities, each with optional key=value annotations."""

    entries: tuple[tuple[Identity, Annotations | None], ...]

    @property
    def identities(self) -> tuple[Identity, ...]:
        return tuple(ident for ident, _ in self.entries)


def format_document(doc: IdentityDocument) -> str:
    lines = []
    for ident, ann in doc.entries:
        line = format_identity(ident)
        if ann:
            line += "  # " + " ".join(f"{k}={v}" for k, v in ann)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _parse_annotations(comment: str) -> Annotations | None:
    parts = comment.split()
    if not parts or not all("=" in p for p in parts):
        return None  # a prose comment, not annotations
    return tuple(tuple(p.split("=", 1)) for p in parts)


def parse_document(text: str) -> IdentityDocument:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        body, hash_, comment = raw.partition("#")
        try:
            ident = parse_identity(body)
        except IdentitySyntaxError as e:
            raise IdentitySyntaxError(f"line {lineno}: {e.message}", e.column) from None
        ann = _parse_annotations(comment) if hash_ else None
        entries.append((ident, ann))
    return IdentityDocument(tuple(entries))


def identity_to_dict(identity: Identity, annotations: Annotations | None = None) -> dict:
    """JSON-ready encoding; `terms` match the canonical printed form."""
    out: dict = {
        "terms": [
            {"coeff": c, "arg": format_value(arg)}
            for c, arg in _canonical_terms(identity)
        ],
        "rhs": format_value(identity.rhs),
        "text": format_identity(identity),
    }
    if annotations:
        out["annotations"] = {k: v for k, v in annotations}
    return out


def identity_from_dict(data: dict) -> Identity:
    terms = tuple(
        ArctanTerm(int(t["coeff"]), parse_value(t["arg"])) for t in data["terms"]
    )
    return Identity(terms, Fraction(data["rhs"]))
