"""Text and JSON round trips for identities and documents."""

import json
import random
from fractions import Fraction

import pytest

from arctanforge import (
    ArctanTerm,
    Identity,
    IdentityDocument,
    IdentitySyntaxError,
    InvalidArgumentError,
    Surd,
    diff_identity,
    format_document,
    format_identity,
    format_value,
    golden_family,
    half_turn,
    identity_from_dict,
    identity_to_dict,
    machin_pair,
    parse_document,
    parse_identity,
    parse_value,
    surd_normalize,
    verify_exact,
)


def ident(terms, rhs):
    return Identity([ArctanTerm(c, a) for c, a in terms], Fraction(rhs))


def test_format_value_forms():
    assert format_value(Fraction(-278, 29)) == "-278/29"
    assert format_value(Fraction(5)) == "5"
    assert format_value(Surd(0, 1, 2)) == "surd(0,1,2)"
    assert format_value(Surd(Fraction(1, 2), Fraction(-3, 4), 5)) == "surd(1/2,-3/4,5)"


def test_parse_value_forms():
    assert parse_value("-278/29") == Fraction(-278, 29)
    assert parse_value("7") == Fraction(7)
    assert parse_value("surd(1/2, 1/2, 5)") == surd_normalize(
        Fraction(1, 2), Fraction(1, 2), 5
    )
    # non-squarefree radicands normalize on the way in
    assert parse_value("surd(0, 1, 8)") == Surd(0, 2, 2)
    # a surd with zero radical part demotes to a rational
    assert parse_value("surd(3, 0, 2)") == Fraction(3)


def test_parse_value_errors():
    for bad in ["1/0", "surd(1, 1, 0)", "surd(1, 1, -2)", "", "x"]:
        with pytest.raises(IdentitySyntaxError):
            parse_value(bad)


def test_format_identity_classics():
    e = machin_pair(7, Fraction(3))
    assert format_identity(e) == "7*atan(1/3) - atan(278/29) = 1/4*pi"
    e = machin_pair(8, Fraction(3))
    assert format_identity(e) == "8*atan(1/3) + atan(863/191) = 5/4*pi"
    lone = ident([(1, Fraction(1))], Fraction(1, 4))
    assert format_identity(lone) == "atan(1) = 1/4*pi"
    neg = ident([(-1, Fraction(1, 2)), (-3, Fraction(1, 5))], Fraction(0))
    assert format_identity(neg) == "-atan(1/2) - 3*atan(1/5) = 0*pi"


def test_format_identity_surds():
    g = golden_family("lucas_minus", 0)
    assert (
        format_identity(g)
        == "atan(1/2) - 2*atan(surd(1/2,1/2,5)) = -1/2*pi"
    )


def test_negative_argument_prints_as_negative_term():
    # unit coefficients absorb the argument sign, so the two spellings
    # parse to the same canonical text
    a = parse_identity("atan(-278/29) = 1/4*pi")
    b = parse_identity("- atan(278/29) = 1/4*pi")
    assert format_identity(a) == format_identity(b) == "-atan(278/29) = 1/4*pi"
    # larger coefficients keep the argument sign inside
    c = ident([(2, Fraction(-1, 3))], Fraction(0))
    assert format_identity(c) == "2*atan(-1/3) = 0*pi"


def test_round_trip_generated_identities():
    rng = random.Random(89)
    pool = [machin_pair(rng.randint(1, 10), Fraction(rng.randint(2, 15))) for _ in range(12)]
    pool += [golden_family(k, 2) for k in ("odd", "lucas_minus", "lucas_plus", "only_lucas")]
    pool.append(golden_family("even", 2))
    pool.extend(half_turn(Fraction(3, 4)))
    pool.append(diff_identity(surd_normalize(0, Fraction(1, 2), 2)))
    pool.append(machin_pair(8000, Fraction(5)))  # 4470-digit argument
    for p in pool:
        text = format_identity(p)
        back = parse_identity(text)
        assert format_identity(back) == text
        assert verify_exact(back).holds == verify_exact(p).holds


def test_parse_identity_whitespace_insensitive():
    a = parse_identity("7*atan(1/3)-atan(278/29)=1/4*pi")
    b = parse_identity("  7 * atan( 1/3 )  -  atan( 278/29 ) = 1/4 * pi  ")
    assert format_identity(a) == format_identity(b)


def test_parse_identity_trailing_comment():
    a = parse_identity("atan(1) = 1/4 * pi  # n=1 x=1")
    assert a.rhs == Fraction(1, 4)


def test_parse_identity_column_reporting():
    with pytest.raises(IdentitySyntaxError) as ei:
        parse_identity("7 * atan(1/3 = 1/4 * pi")
    assert ei.value.column == 14
    assert "column 14" in str(ei.value)
    with pytest.raises(IdentitySyntaxError) as ei:
        parse_identity("0 * atan(1/3) = 1/4 * pi")
    assert ei.value.column == 1
    with pytest.raises(IdentitySyntaxError):
        parse_identity("atan(1/2) = 1/4 * pi junk")
    with pytest.raises(IdentitySyntaxError):
        parse_identity("atan(1/2) + = 1/4 * pi")
    with pytest.raises(IdentitySyntaxError):
        parse_identity("")
    # only ASCII 0-9 are digits, though str.isdigit and int() take more
    for digit in ("\u00b2", "\u0663"):  # superscript two, Arabic-Indic three
        for line, col in (
            (f"{digit}*atan(1/3) = 1/4*pi", 1),
            (f"atan(1/{digit}) = 1/4*pi", 8),
            (f"atan(surd(1,1,{digit})) = 1/4*pi", 15),
        ):
            with pytest.raises(IdentitySyntaxError) as ei:
                parse_identity(line)
            assert ei.value.column == col, line


def test_document_round_trip_with_annotations():
    doc = IdentityDocument(
        (
            (machin_pair(2, Fraction(7)), (("family", "machin"), ("n", "2"), ("x", "7"))),
            (golden_family("odd", 0), None),
        )
    )
    text = format_document(doc)
    lines = text.splitlines()
    assert lines[0].endswith("# family=machin n=2 x=7")
    back = parse_document(text)
    assert format_document(back) == text
    assert back.entries[0][1] == (("family", "machin"), ("n", "2"), ("x", "7"))
    assert back.entries[1][1] is None
    assert [format_identity(i) for i in back.identities] == [
        format_identity(i) for i in doc.identities
    ]


def test_document_prose_comments_are_not_annotations():
    text = "atan(1) = 1/4 * pi  # the oldest one\n"
    doc = parse_document(text)
    assert doc.entries[0][1] is None


def test_document_skips_blanks_and_comment_lines():
    text = "\n# corpus header\n\natan(1) = 1/4 * pi\n\n"
    doc = parse_document(text)
    assert len(doc.entries) == 1


def test_document_error_carries_line_number():
    with pytest.raises(IdentitySyntaxError) as ei:
        parse_document("atan(1) = 1/4 * pi\natan(1/3 = 0 * pi\n")
    msg = str(ei.value)
    assert msg.startswith("line 2:")
    assert msg.count("column") == 1


def test_json_round_trip():
    pool = [
        machin_pair(5, Fraction(2)),
        golden_family("even", 1),
        ident([(1, Fraction(-1, 2))], Fraction(0)),
        # a right side past the interpreter's 4300-digit int-str limit
        ident([(3, Fraction(1, 7))], Fraction(10**5000 + 1, 4)),
    ]
    for p in pool:
        d = identity_to_dict(p)
        blob = json.dumps(d)
        back = identity_from_dict(json.loads(blob))
        assert format_identity(back) == format_identity(p)
        assert d["text"] == format_identity(p)
        assert d["rhs"] == format_value(p.rhs)


def test_json_decoder_rejects_bad_input():
    good = identity_to_dict(machin_pair(2, Fraction(7)))
    for coeff in (2.5, 2.0, True, "2", None):
        bad = json.loads(json.dumps(good))
        bad["terms"][0]["coeff"] = coeff
        with pytest.raises(InvalidArgumentError):
            identity_from_dict(bad)
    bad = dict(good, rhs="surd(1,1,2)")
    with pytest.raises(InvalidArgumentError):
        identity_from_dict(bad)
    for key in ("terms", "rhs"):
        bad = {k: v for k, v in good.items() if k != key}
        with pytest.raises(InvalidArgumentError, match=key):
            identity_from_dict(bad)
    for key in ("coeff", "arg"):
        bad = json.loads(json.dumps(good))
        del bad["terms"][1][key]
        with pytest.raises(InvalidArgumentError, match=key):
            identity_from_dict(bad)
    # values that JSON types but the encoding never holds
    for bad in (dict(good, rhs=0.25), dict(good, terms=5), dict(good, terms=[5])):
        with pytest.raises(InvalidArgumentError):
            identity_from_dict(bad)
    bad = json.loads(json.dumps(good))
    bad["terms"][0]["arg"] = 5
    with pytest.raises(InvalidArgumentError):
        identity_from_dict(bad)


def test_json_annotations_field():
    d = identity_to_dict(machin_pair(2, Fraction(7)), annotations=(("n", "2"),))
    assert d["annotations"] == {"n": "2"}
    assert "annotations" not in identity_to_dict(machin_pair(2, Fraction(7)))


def test_fifty_line_corpus_round_trip():
    rng = random.Random(97)
    entries = []
    for _ in range(25):
        ids = machin_pair(rng.randint(1, 12), Fraction(rng.randint(2, 25)))
        entries.append((ids, (("kind", "machin"),)))
    for k in range(5):
        for kind in ("odd", "lucas_minus", "lucas_plus", "only_lucas"):
            entries.append((golden_family(kind, k), None))
    for k in range(1, 6):
        entries.append((golden_family("even", k), (("k", str(k)),)))
    doc = IdentityDocument(tuple(entries))
    text = format_document(doc)
    assert len(text.splitlines()) == 50
    assert format_document(parse_document(text)) == text
