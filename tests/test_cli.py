"""End-to-end command tests through run(argv)."""

import io
import json
import random
import time
from fractions import Fraction

import pytest

import arctanforge.cli as cli
import arctanforge.values as values
from arctanforge import (
    DigitResult,
    IdentitySyntaxError,
    format_identity,
    identity_from_dict,
    machin_pair,
    parse_identity,
    verify_exact,
)
from arctanforge.cli import run


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_gen_single(capsys):
    assert run(["gen", "--n", "7", "--x", "3"]) == 0
    assert out_lines(capsys) == ["7*atan(1/3) - atan(278/29) = 1/4*pi"]


def test_gen_beyond_int_str_limit(capsys):
    # the second argument of machin_pair(8000, 5) has over 4300 digits
    assert run(["gen", "--n", "8000", "--x", "5"]) == 0
    assert out_lines(capsys) == [format_identity(machin_pair(8000, Fraction(5)))]


def test_gen_range_with_annotations(capsys):
    assert run(["gen", "--n-range", "2..3", "--x-range", "3..4"]) == 0
    lines = out_lines(capsys)
    assert len(lines) == 4
    assert lines[0].endswith("# family=machin n=2 x=3")
    assert lines[-1].endswith("# family=machin n=3 x=4")


def test_gen_json_round_trip(capsys):
    assert run(["gen", "--json", "--n", "5", "--x", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    back = identity_from_dict(payload[0])
    assert format_identity(back) == format_identity(machin_pair(5, Fraction(2)))
    assert payload[0]["rhs"] == "1/4"


def test_gen_missing_arguments(capsys):
    assert run(["gen", "--n", "7"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_degenerate_x(capsys):
    assert run(["gen", "--n", "4", "--x", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_quad_command(capsys):
    assert run(["quad", "--h", "0", "--k", "-2", "--alpha", "0,1,2"]) == 0
    line = out_lines(capsys)[0]
    assert line == "2*atan(surd(0,1/2,2)) - atan(surd(9/7,-4/7,2)) = 1/4*pi"
    assert verify_exact(cli.parse_document(line).identities[0]).holds


def test_quad_rejects_non_root(capsys):
    assert run(["quad", "--h", "3", "--k", "-1", "--alpha", "0,1,2"]) == 2
    assert "error" in capsys.readouterr().err
    assert run(["quad", "--h", "0", "--k", "-2", "--alpha", "0,1"]) == 2


def test_quad_factors_the_radicand_once(monkeypatch, capsys):
    # arithmetic on canonical surds keeps the radicand, so only the input
    # radicand is factored, however many operations the reduction takes
    calls = []
    factor = values._squarefree_decompose
    monkeypatch.setattr(
        values, "_squarefree_decompose", lambda d: calls.append(d) or factor(d)
    )
    d = 1000003  # prime
    assert run(["quad", "--h", "0", "--k", str(-d), "--alpha", f"0,1,{d}"]) == 0
    assert calls == [d]
    assert verify_exact(cli.parse_document(out_lines(capsys)[0]).identities[0]).holds


def test_golden_command(capsys):
    assert run(["golden", "--family", "lucas-minus", "--k", "0"]) == 0
    line = out_lines(capsys)[0]
    assert line.startswith("atan(1/2) - 2*atan(surd(1/2,1/2,5)) = -1/2*pi")
    assert line.endswith("# family=lucas-minus k=0")
    assert run(["golden", "--family", "no-such", "--k", "0"]) == 2


def test_half_command(capsys):
    assert run(["half", "--x", "3/4"]) == 0
    lines = out_lines(capsys)
    assert lines == [
        "2*atan(1/2) + atan(3/4) = 1/2*pi",
        "2*atan(-2) + atan(3/4) = -1/2*pi",
    ]
    # sqrt(1 + 1/q^2): the radicand q^2 + 1 and the square q^2 are factored apart
    assert run(["half", "--x", "1/10007"]) == 0
    assert out_lines(capsys) == [
        "2*atan(surd(-1/10007,5/10007,4005602)) + atan(1/10007) = 1/2*pi",
        "2*atan(surd(-1/10007,-5/10007,4005602)) + atan(1/10007) = -1/2*pi",
    ]


def test_diff_command(capsys):
    assert run(["diff", "--f", "1/2"]) == 0
    # the subtracted negative argument prints as a plain positive term
    assert out_lines(capsys) == ["atan(1/2) + atan(1/3) = 1/4*pi"]


def test_rootpoly_text(capsys):
    assert run(["rootpoly", "--n", "2", "--x", "1/7"]) == 0
    lines = out_lines(capsys)
    assert lines[0] == "1/7*z^2 + 2*z - 1/7"
    assert set(lines[1:]) == {"root: surd(-7,5,2)", "root: surd(-7,-5,2)"}
    assert run(["rootpoly", "--n", "2", "--x", "1/10007"]) == 0
    assert out_lines(capsys) == [
        "1/10007*z^2 + 2*z - 1/10007",
        "root: surd(-10007,5,4005602)",
        "root: surd(-10007,-5,4005602)",
    ]
    q = 1000003  # prime above the trial bound; q^2 + 1 is squarefree
    assert run(["rootpoly", "--n", "2", "--x", f"1/{q}"]) == 0
    assert out_lines(capsys)[1:] == [
        f"root: surd(-{q},1,{q * q + 1})",
        f"root: surd(-{q},-1,{q * q + 1})",
    ]


def test_rootpoly_large_prime_radicand_is_quick(capsys):
    # 10^24 + 7 is prime; trial division up to its square root never ends
    x = "surd(1,1,1000000000000000000000007)"
    start = time.perf_counter()
    assert run(["rootpoly", "--n", "2", "--x", x]) == 0
    assert time.perf_counter() - start < 1
    assert out_lines(capsys) == [f"{x}*z^2 + 2*z - {x}"]
    # (10^6 + 3) * (10^12 + 39): no factor up to the trial bound, and not prime
    assert run(["rootpoly", "--n", "2", "--x", "surd(1,1,1000003000039000117)"]) == 2
    assert "cannot certify" in capsys.readouterr().err


def test_rootpoly_json_cubic_has_no_roots(capsys):
    assert run(["rootpoly", "--json", "--n", "3", "--x", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 3
    assert payload["coefficients"] == ["-2", "3", "6", "-1"]  # -2 + 3z + 6z^2 - z^3
    assert payload["roots"] is None


def test_verify_file_exact(tmp_path, capsys):
    f = tmp_path / "ids.txt"
    f.write_text(
        "5*atan(1/7) + 2*atan(3/79) = 1/4*pi\n"
        "4*atan(1/5) - atan(1/239) = 1/4*pi\n"
    )
    assert run(["verify", "--exact", "--file", str(f)]) == 0
    lines = out_lines(capsys)
    assert all(line.startswith("holds:") for line in lines)


def test_verify_file_is_closed(tmp_path, monkeypatch):
    f = tmp_path / "ids.txt"
    f.write_text("atan(1) = 1/4*pi\n")
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    assert run(["verify", "--exact", "--file", str(f)]) == 0
    assert len(opened) == 1 and opened[0].closed


def test_verify_file_with_failure(tmp_path, capsys):
    f = tmp_path / "ids.txt"
    f.write_text("2*atan(1/2) + atan(1/3) = 1/4*pi\natan(1) = 1/4*pi\n")
    assert run(["verify", "--exact", "--file", str(f)]) == 1
    lines = out_lines(capsys)
    assert lines[0].startswith("fails:")
    assert lines[1].startswith("holds:")


def test_verify_numeric_residual_and_indeterminate(tmp_path, capsys):
    f = tmp_path / "ids.txt"
    f.write_text("5*atan(1/7) + 2*atan(3/79) = 1/4*pi\n")
    assert run(["verify", "--numeric", "--digits", "40", "--file", str(f)]) == 0
    assert "[residual" in out_lines(capsys)[0]
    g = tmp_path / "tiny.txt"
    g.write_text("atan(1/100000000) = 0*pi\n")
    assert run(["verify", "--numeric", "--file", str(g)]) == 1
    assert out_lines(capsys)[0].startswith("indeterminate:")


def test_verify_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("atan(1) = 1/4*pi\n"))
    assert run(["verify", "--exact", "--file", "-"]) == 0
    assert out_lines(capsys)[0].startswith("holds:")


def test_verify_json_payload(tmp_path, capsys):
    f = tmp_path / "ids.txt"
    f.write_text("2*atan(1/2) + atan(1/3) = 1/4*pi\n")
    assert run(["verify", "--exact", "--json", "--file", str(f)]) == 1
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["holds"] is False
    assert "arctan(3)" in rows[0]["actual"]


def test_verify_mode_flags_conflict(tmp_path):
    f = tmp_path / "ids.txt"
    f.write_text("atan(1) = 1/4*pi\n")
    assert run(["verify", "--exact", "--numeric", "--file", str(f)]) == 2


def test_verify_syntax_error_file(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("atan(1 = 1/4*pi\n")
    assert run(["verify", "--exact", "--file", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:")
    assert "column" in err
    for line in ("atan(1/\u00b2) = 1/4*pi", "\u0663*atan(1/3) = 1/4*pi"):
        f.write_text(line + "\n", encoding="utf-8")
        assert run(["verify", "--exact", "--file", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1:") and "column" in err, err


def test_verify_missing_file(capsys):
    assert run(["verify", "--exact", "--file", "/no/such/file"]) == 2
    assert "error" in capsys.readouterr().err


def test_digits_command(capsys):
    assert run(["digits", "--n", "2", "--x", "7", "--digits", "30"]) == 0
    assert out_lines(capsys) == ["3.141592653589793238462643383279"]


def test_digits_json_fields(tmp_path, capsys):
    f = tmp_path / "euler.txt"
    f.write_text("5*atan(1/7) + 2*atan(3/79) = 1/4*pi\n")
    assert run(["digits", "--json", "--file", str(f), "--digits", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["digits"] == "3.141592653589"
    assert payload["count"] == 12
    assert payload["unrounded"] is False
    assert payload["elapsed"] >= 0
    assert payload["identity"]["text"] == "5*atan(1/7) + 2*atan(3/79) = 1/4*pi"


def test_digits_requires_source(tmp_path, capsys):
    assert run(["digits"]) == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    assert run(["digits", "--file", str(empty)]) == 2


def test_verify_empty_file_is_an_error(tmp_path, capsys):
    # exit 0 means every identity held; an empty document must not earn it
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    assert run(["verify", "--exact", "--file", str(empty)]) == 2
    assert "no identities" in capsys.readouterr().err
    assert run(["measure", "--file", str(empty)]) == 2
    assert "no identities" in capsys.readouterr().err


def test_digits_unconfirmed_tail_warns(monkeypatch, capsys):
    ident = machin_pair(2, Fraction(7))
    fake = DigitResult("3.1", ident, 0.0, unrounded=True)
    monkeypatch.setattr(cli, "pi_digits", lambda *a, **k: fake)
    assert run(["digits", "--n", "2", "--x", "7", "--digits", "1"]) == 1
    assert "unconfirmed" in capsys.readouterr().err


def test_digits_rejects_surd_identity(tmp_path, capsys):
    f = tmp_path / "phi.txt"
    f.write_text("2*atan(surd(-1/2,1/2,5)) + atan(-1/3) = 1/4*pi\n")
    assert run(["digits", "--file", str(f)]) == 2
    assert "error" in capsys.readouterr().err


def test_measure_command(tmp_path, capsys):
    f = tmp_path / "ids.txt"
    f.write_text("5*atan(1/7) + 2*atan(3/79) = 1/4*pi\n")
    assert run(["measure", "--file", str(f)]) == 0
    line = out_lines(capsys)[0]
    assert line.startswith("1.887269  5*atan(1/7)")


def test_measure_json_inf_is_null(tmp_path, capsys):
    f = tmp_path / "ids.txt"
    f.write_text("atan(1) = 1/4*pi\n")
    assert run(["measure", "--json", "--file", str(f)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["measure"] is None


def test_unknown_command_and_empty_argv():
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


def test_help_exits_zero():
    assert run(["--help"]) == 0
    assert run(["gen", "--help"]) == 0


# Pieces of option values: ASCII and non-ASCII digits, signs, separators and
# junk.  At most three pieces keep every accepted number below 1000.
FUZZ_PIECES = ["0", "1", "2", "7", "1", "2", "7", "-", "/", "+", "_", " ", "\u0667", "\u0663",
               "\u0661\u0662", "\u06f5", "\u0966", "\u00b2", "x", ".", "e", "surd"]


def grammar_number(text: str, integer: bool):
    """text read as a number where a document line takes one, or None."""
    try:
        arg = parse_identity(f"atan({text}) = 1/4*pi").terms[0].arg
    except IdentitySyntaxError:
        return None
    if integer and not (isinstance(arg, Fraction) and arg.denominator == 1):
        return None
    return arg


def test_numeric_options_fuzz(tmp_path, capsys):
    # each option reads numbers with the document grammar, and no input
    # ends in anything but exit 0, 1 or 2 without a traceback
    doc = tmp_path / "ids.txt"
    doc.write_text("atan(1) = 1/4*pi\n")
    slots = [  # argv with {} for the value, and whether it must be an integer
        (["gen", "--n={}", "--x=3"], True),
        (["quad", "--h={}", "--k=-2", "--alpha=0,1,2"], True),
        (["quad", "--h=0", "--k={}", "--alpha=0,1,2"], True),
        (["quad", "--h=0", "--k=-2", "--alpha={},1,2"], False),
        (["quad", "--h=0", "--k=-2", "--alpha=0,{},2"], False),
        (["quad", "--h=0", "--k=-2", "--alpha=0,1,{}"], True),
        (["golden", "--family=odd", "--k={}"], True),
        (["rootpoly", "--n={}", "--x=1/7"], True),
        (["verify", "--numeric", "--digits={}", f"--file={doc}"], True),
        (["digits", "--n={}", "--x=7", "--digits=5"], True),
        (["digits", "--n=2", "--x=7", "--digits={}"], True),
    ]
    rng = random.Random(5)
    for argv, integer in slots:
        option = next(a for a in argv if "{}" in a).split("=")[0]
        for _ in range(25):
            text = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 3)))
            code = run([a.format(text) for a in argv])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, text)
            rejected = f"error: argument {option}" in err
            assert rejected == (grammar_number(text, integer) is None), (argv, text, err)
    for lo_hi in ("{}..3", "1..{}"):
        for _ in range(25):
            text = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 3)))
            code = run(["gen", "--n-range=" + lo_hi.format(text), "--x-range=2..3"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2) and "Traceback" not in err, (lo_hi, text)
            n = grammar_number(text, True)
            ok = n is not None and (n <= 3 if lo_hi[0] == "{" else n >= 1)
            assert ("error: argument --n-range" not in err) == ok, (lo_hi, text, err)


def test_non_ascii_and_python_only_numbers_exit_2(capsys):
    for argv in (
        ["gen", "--n", "\u0667", "--x", "3"],
        ["quad", "--h", "0", "--k", "-9", "--alpha", "0,1,\u0663"],
        ["digits", "--n", "2", "--x", "7", "--digits", "\u0661\u0662"],
        ["gen", "--n", "1_0", "--x", "3"],
        ["gen", "--n", "+7", "--x", "3"],
    ):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err, argv
