"""The package's public surface: the names the README documents, the
attributes the benchmark's tracer wraps, the routes kept apart, and the
integer check at every entry point."""

import ast
import importlib
import importlib.util
import inspect
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import arctanforge
from arctanforge import (
    ArctanTerm,
    Identity,
    InvalidArgumentError,
    NormalAngle,
    Surd,
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
from arctanforge.sequences import uv_coefficients

ROOT = Path(__file__).resolve().parent.parent


def test_all_matches_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    assert arctanforge.__all__ == re.findall(r"`(\w+)`", section)


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
