"""The package's public surface: the names the README documents, the
attributes the benchmark's tracer wraps, the routes kept apart, the
integer check at every entry point, and the contract of the records."""

import ast
import copy
import importlib
import importlib.util
import inspect
import pickle
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import arctanforge
from arctanforge import (
    ArctanTerm,
    DigitResult,
    Identity,
    IdentityDocument,
    InvalidArgumentError,
    InvalidRadicandError,
    NormalAngle,
    OdotPolynomial,
    Surd,
    Verdict,
    diff_identity,
    fold_terms,
    format_value,
    golden_family,
    half_turn,
    lucas,
    machin_pair,
    odot,
    odot_pow,
    parse_identity,
    phi_power,
    pi_digits,
    quad_reduce,
    root_poly,
    surd_normalize,
    uv_pair,
    value_sign,
    value_sqrt,
    verify_numeric,
)
from arctanforge.fixedpoint import FixedPointContext
from arctanforge.sequences import UVPair, uv_coefficients

ROOT = Path(__file__).resolve().parent.parent


def test_all_matches_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    assert arctanforge.__all__ == re.findall(r"`(\w+)`", section)


def test_module_all_names_only_package_exports():
    # a module's __all__ lists what the package exports, and nothing else
    for path in sorted((ROOT / "src" / "arctanforge").glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"arctanforge.{path.stem}")
            extra = set(getattr(module, "__all__", ())) - set(arctanforge.__all__)
            assert not extra, (path.name, extra)


def test_bench_patches_resolve():
    # the tracer skips an attribute it cannot find, and its layer then reads 0
    path = ROOT / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attribute, _ in spans.PATCHES:
        owner = importlib.import_module(f"arctanforge.{module_name}")
        for part in attribute.split("."):
            assert hasattr(owner, part), (module_name, attribute)
            owner = getattr(owner, part)


def test_interval_route_does_not_use_the_digit_engine():
    # the interval route cross-checks the digit engine, so it must not share
    # its series
    path = ROOT / "src" / "arctanforge" / "fixedpoint.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name.rsplit(".", 1)[-1] for a in node.names)
    assert "engine" not in imported


def test_modules_use_what_they_import():
    # an import left behind by a removal is dead unless the module
    # re-exports it through __all__
    for path in sorted((ROOT / "src" / "arctanforge").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
            elif isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
        module = importlib.import_module(f"arctanforge.{path.stem}".removesuffix(".__init__"))
        exported = set(getattr(module, "__all__", ()))
        assert imported <= used | exported, (path.name, imported - used - exported)


PHI = phi_power(1)
EULER = parse_identity("5*atan(1/7) + 2*atan(3/79) = 1/4*pi")

# (function, integer parameter, a valid value, least value or None, call):
# every entry point that takes an integer checks it with one helper
INT_ARGS = [
    (pi_digits, "digits", 1, 1, lambda v: pi_digits(EULER, v)),
    (verify_numeric, "digits", 10, 10, lambda v: verify_numeric(EULER, v)),
    (FixedPointContext, "wp", 1, 1, FixedPointContext),
    (machin_pair, "n", 1, 1, lambda v: machin_pair(v, Fraction(5))),
    (golden_family, "k", 0, 0, lambda v: golden_family("odd", v)),
    (golden_family, "k", 1, 1, lambda v: golden_family("even", v)),
    (quad_reduce, "h", 1, None, lambda v: quad_reduce(v, -1, PHI)),
    (quad_reduce, "kq", -1, None, lambda v: quad_reduce(1, v, PHI)),
    (odot_pow, "n", 1, 1, lambda v: odot_pow(Fraction(1, 2), v)),
    (root_poly, "n", 1, 1, lambda v: root_poly(v, Fraction(2))),
    (uv_pair, "n", 0, 0, lambda v: uv_pair(v, Fraction(3))),
    (uv_coefficients, "n", 0, 0, uv_coefficients),
    (lucas, "m", 0, 0, lucas),
    (phi_power, "m", 0, 0, phi_power),
    (NormalAngle, "h", 0, None, lambda v: NormalAngle(Fraction(1, 2), v)),
    (fold_terms, "coeff", 4, None, lambda v: fold_terms([(v, Fraction(1, 5))])),
]


def test_integer_arguments_are_checked():
    for fn, param, good, least, call in INT_ARGS:
        call(good)
        bad = [2.5, 3.0, True, "3", None]
        if least is not None:
            bad += [least - 1, -(10**5000)]
        for value in bad:
            with pytest.raises(InvalidArgumentError):
                call(value)


def test_integer_entry_points_are_in_the_table():
    # a new public function with an integer parameter must join INT_ARGS
    names = {"n", "k", "m", "h", "kq", "digits"}
    covered = {(fn, param) for fn, param, *_ in INT_ARGS}
    for name in arctanforge.__all__:
        fn = getattr(arctanforge, name)
        if inspect.isfunction(fn):
            for param in names & set(inspect.signature(fn).parameters):
                assert (fn, param) in covered, (name, param)


# (function, value parameter, a valid value, a valid Surd or None where no
# Surd is allowed, call): every entry point that takes an exact value checks
# it with one gate
VALUE_ARGS = [
    (machin_pair, "x", Fraction(5), PHI, lambda v: machin_pair(2, v)),
    (half_turn, "x", Fraction(3, 4), Surd(0, Fraction(1, 4), 2), half_turn),
    (diff_identity, "f", Fraction(2, 7), PHI, diff_identity),
    (odot, "x", Fraction(1, 2), PHI, lambda v: odot(v, Fraction(1, 3))),
    (odot, "y", 3, PHI, lambda v: odot(Fraction(1, 2), v)),
    (odot_pow, "x", Fraction(1, 2), PHI, lambda v: odot_pow(v, 3)),
    (root_poly, "x", Fraction(2), PHI, lambda v: root_poly(2, v)),
    (root_poly, "z", 3, PHI, lambda v: root_poly(2, Fraction(2)).evaluate(v)),
    (uv_pair, "x", Fraction(3), PHI, lambda v: uv_pair(3, v)),
    (fold_terms, "arg", Fraction(1, 5), PHI, lambda v: fold_terms([(4, v)])),
    (NormalAngle, "t", Fraction(1, 2), PHI, lambda v: NormalAngle(v, 0)),
    (value_sign, "x", Fraction(-1, 2), PHI, value_sign),
    (value_sqrt, "x", 2, PHI * PHI, value_sqrt),
    (format_value, "v", Fraction(1, 3), PHI, format_value),
    (FixedPointContext, "x", Fraction(1, 5), PHI, lambda v: FixedPointContext(50).atan(v)),
    (ArctanTerm, "arg", Fraction(1, 5), PHI, lambda v: ArctanTerm(1, v)),
    (Identity, "rhs", Fraction(1, 4), None, lambda v: Identity(EULER.terms, v)),
    (Surd, "a", 1, None, lambda v: Surd(v, 1, 2)),
    (Surd, "b", Fraction(1, 2), None, lambda v: Surd(1, v, 2)),
    (surd_normalize, "a", 1, None, lambda v: surd_normalize(v, 1, 2)),
    (surd_normalize, "b", Fraction(1, 2), None, lambda v: surd_normalize(1, v, 2)),
]


def test_exact_values_are_checked():
    for fn, param, good, surd, call in VALUE_ARGS:
        call(good)
        bad = [0.5, 3.0, True, "1/2", Decimal("0.5"), None, 1j]
        if surd is None:
            bad.append(PHI)
        else:
            call(surd)
        for value in bad:
            # the message names the argument, never the value
            with pytest.raises(InvalidArgumentError, match=f"^{param} must be an int"):
                call(value)


def test_value_entry_points_are_in_the_table():
    # a new public function with an exact-value parameter must join VALUE_ARGS
    names = {"x", "y", "f", "v", "z", "a", "b"}
    covered = {(fn, param) for fn, param, *_ in VALUE_ARGS}
    for name in arctanforge.__all__:
        fn = getattr(arctanforge, name)
        if inspect.isfunction(fn):
            for param in names & set(inspect.signature(fn).parameters):
                assert (fn, param) in covered, (name, param)


TERM = ArctanTerm(4, Fraction(1, 5))
MACHIN = Identity((TERM, ArctanTerm(-1, Fraction(1, 239))), Fraction(1, 4))
ANGLE = NormalAngle(Fraction(1, 2), 1)

# (record class, its fields in order with values, one field changed, and
# arguments its constructor rejects with the error, or None)
RECORDS = [
    (Surd, {"a": Fraction(1, 2), "b": Fraction(1, 2), "d": 5}, {"d": 7},
     ((1, 1, 4), InvalidRadicandError)),
    (NormalAngle, {"t": Fraction(1, 2), "h": 1}, {"h": 2}, ((0.5, 0), InvalidArgumentError)),
    (ArctanTerm, {"coeff": 4, "arg": Fraction(1, 5)}, {"coeff": 3},
     ((0, 1), InvalidArgumentError)),
    (Identity, {"terms": MACHIN.terms, "rhs": Fraction(1, 4)}, {"rhs": Fraction(1, 2)},
     (((), Fraction(1, 4)), InvalidArgumentError)),
    (OdotPolynomial, {"coefficients": (Fraction(-2), Fraction(2), Fraction(2)), "n": 2,
                      "x": Fraction(2)}, {"n": 3}, None),
    (UVPair, {"u": Fraction(2), "v": Fraction(11), "n": 3, "x": Fraction(2)}, {"n": 4}, None),
    (IdentityDocument, {"entries": ((MACHIN, (("n", "1"),)), (MACHIN, None))},
     {"entries": ()}, None),
    (DigitResult, {"digits": "3.14", "source": MACHIN, "elapsed": 0.25, "unrounded": True},
     {"unrounded": False}, None),
    (Verdict, {"holds": True, "actual": ANGLE, "claimed_rhs": Fraction(1, 4),
               "numeric_residual": "1e-9 +/- 2e-10", "indeterminate": False},
     {"holds": False}, None),
]


@pytest.mark.parametrize(
    "cls, fields, changed, rejected", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_contract(cls, fields, changed, rejected):
    record = cls(*fields.values())
    # positional and keyword construction build equal records with equal
    # hashes, and the fields read back
    twin = cls(**fields)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert {record, twin} == {record}
    assert all(getattr(record, name) == value for name, value in fields.items())
    # another field value, another class or the bare field tuple is unequal
    other = cls(**{**fields, **changed})
    assert record != other
    assert all(record != r for r in (TERM, ANGLE, tuple(fields.values())) if type(r) is not cls)
    # immutable: no field takes assignment or deletion, and no new attribute
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert all(getattr(record, name) == value for name, value in fields.items())
    # repr names every field; copies and pickles are equal
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in fields)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    if rejected is not None:
        args, error = rejected
        with pytest.raises(error):
            cls(*args)


def test_record_defaults():
    assert DigitResult("3.14", MACHIN, 0.25).unrounded is False
    assert DigitResult("3.14", MACHIN, 0.25, unrounded=True).unrounded is True
    verdict = Verdict(True, ANGLE, Fraction(1, 4))
    assert verdict.numeric_residual is None and verdict.indeterminate is False
    assert verdict == Verdict(holds=True, actual=ANGLE, claimed_rhs=Fraction(1, 4))


def test_import_generates_no_code():
    # the records are plain classes, so importing the CLI loads neither
    # dataclasses nor the inspect module it pulls in
    src = str(ROOT / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import arctanforge.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
