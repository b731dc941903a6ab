"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from reference import _to_decimal, pi_decimals  # noqa: E402
from spans import layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
RESOLUTION = time.get_clock_info("perf_counter").resolution


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    build = WORKLOADS[workload]
    first = build(run.Modules(), 7).schedule
    again = build(run.Modules(), 7).schedule
    other = build(run.Modules(), 8).schedule
    assert first == again
    assert first != other


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        info, result = run.run_workload(workload, 1, 0.01, trace, quick=True)
        assert result["correct"] is True
        assert result["attempted"] >= 1
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == _units(kind)
        assert info["passes"] >= run.MIN_PASSES
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_residual_layer_times_are_not_negative(workload):
    tracer = run.Tracer()
    _, mods, wl = run.setup(workload, 2, quick=True)
    run.timed_loop(wl, mods, 0.01, tracer)
    assert tracer.spans
    totals = layer_totals(tracer.spans)
    assert totals["engine.finish_s"] >= -RESOLUTION
    assert totals["cli.overhead_s"] >= -RESOLUTION
    children = {}
    for span in tracer.spans:
        children[span[2]] = children.get(span[2], 0.0) + span[5] - span[4]
    for span in tracer.spans:
        assert span[5] - span[4] - children.get(span[1], 0.0) >= -RESOLUTION


def test_reference_digits():
    assert pi_decimals(50) == "14159265358979323846264338327950288419716939937510"
    assert pi_decimals(6000)[:1000] == pi_decimals(1000)


def test_chunked_decimal_text_beyond_int_str_limit():
    assert _to_decimal(7 * (10**6000 - 1) // 9, 6000) == "7" * 6000
    assert _to_decimal(5 * 10**4000 + 3, 4500) == "0" * 499 + "5" + "0" * 3999 + "3"


def test_bare_directory_fails_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "digits", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
