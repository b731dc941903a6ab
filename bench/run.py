"""Layered benchmark for arctanforge: pi digits, verification, CLI generation.

    python3 bench/run.py --workload digits|verify|generate|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  Each
workload is a closed loop with one client in one single-threaded process:
the next operation starts when the previous one returns.  The loop repeats
whole passes over the workload's seeded schedule until --seconds have
passed and at least three passes ran.

--trace 0 prints the end-to-end metrics of a typical pass, in which every
slot of the schedule takes the median of its times over the passes:
  setup_s        median of five set-ups (import, input generation, warm-up)
  ops_per_s      successful operations per second
  op_p50_s       median operation time; op_tail_s a fixed high percentile
  success_ratio  1 - failed/attempted; a failure is an exception, a non-zero
                 exit, an indeterminate or wrong verdict, a wrong output or
                 an operation over the time limit
  digits_per_s   decimal digits of checked output per second: proven pi
                 digits (digits), precision of correct numeric verdicts
                 (verify), digits printed in verified lines (generate)
  peak_rss_mb    peak resident memory of the process, read after the loop

--trace 1 alternates untraced and traced passes, prints each layer's total
over a traced pass (median over the traced passes) and the tracing
overhead, and writes the spans to bench/out/.  Every output is checked:
digits against an independent Chudnovsky reference, verdicts against the
table built with the document, and generated lines by parsing them back
and verifying them exactly.  The last line of standard output is the JSON
result; the line before it records the environment and run details.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from spans import SPAN_FIELDS, Tracer, layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("engine", "verifier", "odot", "fixedpoint", "sequences",
           "generator", "values", "textio", "cli", "errors")
SETUP_REPEATS = 5
MIN_PASSES = 3
FLAG_METRICS = sorted({w.flag_metric for w in WORKLOADS.values() if w.flag_metric})


class OpTimeout(Exception):
    """Raised by SIGALRM when an operation exceeds its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Modules:
    """Freshly imported package modules, looked up by short name."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "arctanforge" or n.startswith("arctanforge.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"arctanforge.{name}"))


def setup(workload: str, seed: int, quick: bool):
    """Import, build inputs through the package and warm up; time it all."""
    start = time.perf_counter()
    mods = Modules()
    wl = WORKLOADS[workload](mods, seed, quick)
    wl.warm_up()
    gc.collect()
    return time.perf_counter() - start, mods, wl


def run_op(wl, op, tracer: Tracer | None):
    """One operation under the per-op time limit: (status, seconds, result)."""
    signal.setitimer(signal.ITIMER_REAL, wl.op_limit_s)
    start = time.perf_counter()
    result = None
    try:
        try:
            if tracer is None:
                result = wl.run_op(op)
            else:
                result = tracer.span(f"op.{wl.name}", wl.run_op, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except OpTimeout:
        status = "timeout"
    except Exception:  # any exception from the package is a failed operation
        status = "error"
    elapsed = time.perf_counter() - start
    if status == "ok" and elapsed > wl.op_limit_s:
        status = "timeout"
    return status, elapsed, result


def timed_loop(wl, mods, seconds: float, tracer: Tracer | None):
    """Whole passes until `seconds` have passed.  With a tracer, passes
    alternate untraced/traced and the loop ends after a traced one."""
    signal.signal(signal.SIGALRM, _on_alarm)
    records = []  # [pass, traced, slot, status, seconds, digits, flag]
    passes = []  # (traced, wall seconds, spans recorded during the pass)
    loop_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.install(mods)
        wl.start_pass()
        pass_start = time.perf_counter()
        for slot, op in enumerate(wl.schedule):
            if traced:
                tracer.op += 1
            status, elapsed, result = run_op(wl, op, tracer if traced else None)
            digits = flag = 0
            if status == "ok":
                status, digits, flag = wl.check_op(op, result)
            records.append([len(passes), traced, slot, status, elapsed, digits, flag])
        wall = time.perf_counter() - pass_start
        if traced:
            tracer.uninstall()
        passes.append((traced, wall, tracer.spans[first_span:] if traced else []))
        untraced = sum(not p[0] for p in passes)
        done = time.perf_counter() - loop_start >= seconds and untraced >= MIN_PASSES
        if done and (tracer is None or traced):
            return records, passes


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(wl, records) -> tuple[dict, dict]:
    """Metrics of a typical pass: each slot of the schedule takes the median
    of its times over the passes, so a slow or fast spell of a shared
    machine during one pass does not move the result."""
    by_slot = defaultdict(list)
    for r in records:
        by_slot[r[2]].append(r[4])
    typical = sorted(statistics.median(times) for times in by_slot.values())
    passes = len({r[0] for r in records})
    pass_s = sum(typical)
    ok = sum(r[3] == "ok" for r in records)
    tail = percentile(typical, wl.tail_percentile)
    metrics = {
        "ops_per_s": (ok / passes / pass_s, "1/s"),
        "op_p50_s": (statistics.median(typical), "s"),
        "op_tail_s": (tail, "s"),
        "success_ratio": (ok / len(records), "1"),
        "digits_per_s": (sum(r[5] for r in records) / passes / pass_s, "1/s"),
    }
    detail = {
        "typical_pass_s": pass_s,
        "tail_percentile": wl.tail_percentile,
        "samples": len(records),
        "samples_beyond_tail": sum(r[4] > tail for r in records),
        "fail_ratio": 1 - ok / len(records),
        "failures": {s: sum(r[3] == s for r in records) for s in ("error", "timeout", "exit", "indeterminate", "wrong")},
    }
    return metrics, detail


def per_layer(wl, records, passes) -> dict:
    """Each layer's total over one traced pass, median over traced passes."""
    per_pass = [layer_totals(spans) for traced, _, spans in passes if traced]
    flags = dict.fromkeys(FLAG_METRICS, 0)
    if wl.flag_metric:
        flags[wl.flag_metric] = sum(r[6] for r in records if r[1]) / len(per_pass)
    out = {}
    for key in per_pass[0]:
        unit = "s" if key.endswith("_s") else "count"
        out[key] = (statistics.median(totals[key] for totals in per_pass), unit)
    for key, value in flags.items():
        out[key] = (value, "count")
    return out


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "int_max_str_digits": get_limit() if get_limit else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": 1,
        "clients": 1,
        "layer_waits": "none: the package is synchronous and single-threaded",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False):
    """Run one workload; returns (info, result) dicts."""
    setups = [setup(workload, seed, quick) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s for s, _, _ in setups)
    _, mods, wl = setups[-1]
    del setups

    tracer = Tracer() if trace else None
    records, passes = timed_loop(wl, mods, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bad = wl.wrong_outputs()  # reference checks, outside setup and the loop
    for r in records:
        if r[3] == "ok" and wl.schedule[r[2]] in bad:
            r[3], r[5] = "wrong", 0

    info = {"passes": len(passes), "pass_seconds": [round(p[1], 4) for p in passes]}
    if trace:
        split = {}
        for traced in (False, True):
            e2e, detail = end_to_end(wl, [r for r in records if r[1] == traced])
            e2e["typical_pass_s"] = (detail["typical_pass_s"], "s")
            split["traced" if traced else "untraced"] = e2e
        info["traced_vs_untraced"] = split
        info["tracing_overhead"] = {
            key: split["traced"][key][0] - split["untraced"][key][0] for key in split["traced"]
        }
        metrics = per_layer(wl, records, passes)
        metrics["trace.overhead_s"] = (info["tracing_overhead"]["typical_pass_s"], "s")
        write_spans(workload, seed, tracer)
    else:
        metrics, detail = end_to_end(wl, records)
        info.update(detail)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    result = {
        "correct": not any(r[3] == "wrong" for r in records),
        "attempted": len(records),
        "failed": sum(r[3] != "ok" for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def write_spans(workload: str, seed: int, tracer: Tracer) -> None:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, f)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (SRC / "arctanforge" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/arctanforge", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    info, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"info": {**environment(args), **info}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
