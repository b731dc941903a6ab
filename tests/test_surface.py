"""The package's public surface: the names the README documents, the
attributes the benchmark's tracer wraps, and the routes kept apart."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import arctanforge

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
