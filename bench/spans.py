"""Spans around the package's layer boundaries, recorded from outside.

The package has no instrumentation of its own, so the traced run swaps the
public function of each module, in every namespace that calls it, for a
wrapper that records a span: op id, span id, parent span id, name, start,
end and an optional work count.  Spans stay in memory and are written out
when the run ends.  `uninstall` restores the original functions, so traced
and untraced passes can alternate in one process.

The code under test is synchronous and single-threaded: no layer ever waits
on another, so spans have no wait time, only busy time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (module, attribute, span name).  A dotted attribute names a method on a
# class.  Each function is patched where its callers look it up, so that
# calls made inside the package are caught too.  Attributes missing from
# the package under test are skipped, and their layers then read zero.
PATCHES = (
    ("engine", "pi_digits", "engine.pi_digits"),
    ("engine", "atan_series_split", "engine.split"),
    ("engine", "verify_exact", "verifier.exact"),
    ("verifier", "verify_exact", "verifier.exact"),
    ("verifier", "verify_numeric", "verifier.numeric"),
    ("verifier", "pi_interval", "fixedpoint.pi"),
    ("fixedpoint", "FixedPointContext.atan", "fixedpoint.atan"),
    ("generator", "fold_terms", "odot.fold"),
    ("generator", "uv_pair", "sequences.uv"),
    ("cli", "machin_pair", "generator.build"),
    ("cli", "quad_reduce", "generator.build"),
    ("cli", "golden_family", "generator.build"),
    ("cli", "half_turn", "generator.build"),
    ("cli", "diff_identity", "generator.build"),
    ("cli", "root_poly", "generator.build"),
    ("odot", "OdotPolynomial.roots", "generator.build"),
    ("values", "surd_normalize", "values.normalize"),
    ("sequences", "surd_normalize", "values.normalize"),
    ("textio", "surd_normalize", "values.normalize"),
    ("cli", "surd_normalize", "values.normalize"),
    ("values", "_squarefree_decompose", "values.squarefree"),
    ("textio", "parse_document", "textio.parse"),
    ("cli", "format_document", "textio.format"),
    ("cli", "run", "cli.run"),
)


def _fold_steps(args, kwargs, result):
    return sum(abs(c) for c, _ in args[0])


def _radicand_digits(args, kwargs, result):
    d = args[2] if len(args) > 2 else kwargs["d"]
    return len(str(abs(d))) if isinstance(d, int) else 0


def _text_bytes(args, kwargs, result):
    return len(args[0].encode("utf-8"))


def _result_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _materialize(args, kwargs):
    # fold_terms takes an iterable that may be a one-shot generator
    return (list(args[0]),) + tuple(args[1:]), kwargs


# span name -> (count, prepare) hooks; count runs after the clock stops
HOOKS = {
    "odot.fold": (_fold_steps, _materialize),
    "values.normalize": (_radicand_digits, None),
    "textio.parse": (_text_bytes, None),
    "textio.format": (_result_bytes, None),
}

SPAN_FIELDS = ("op", "span", "parent", "name", "start", "end", "count")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; used for the benchmark's own op spans."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name: str):
        count, prepare = HOOKS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            parent = self._stack[-1] if self._stack else 0
            sid = self._next_id
            self._next_id += 1
            self._stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                self._stack.pop()
                n = count(args, kwargs, result) if count and result is not None else 0
                self.spans.append((self.op, sid, parent, name, start, end, n))

        return traced

    def install(self, mods) -> None:
        for module_name, attr, name in PATCHES:
            owner = getattr(mods, module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


def layer_totals(spans) -> dict[str, float]:
    """Per-layer sums over a list of spans.

    Inclusive layers sum span durations; layers nest, so they overlap (a
    numeric verdict includes its fold, atan and pi).  engine.split_s covers
    atan_series_split, which also does each term's floor division.  Residual layers (engine.finish_s,
    cli.overhead_s) are self times: the span's duration minus the time its
    direct child spans cover, which cannot go negative because children run
    inside their parent's interval.
    """
    name_of = {s[1]: s[3] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        child_time[s[2]] += s[5] - s[4]
    dur: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    atan_outside_pi = 0.0
    for op, sid, parent, name, start, end, n in spans:
        dur[name] += end - start
        self_time[name] += end - start - child_time[sid]
        counts[name] += n
        if name == "fixedpoint.atan" and name_of.get(parent) != "fixedpoint.pi":
            atan_outside_pi += end - start
    return {
        "engine.split_s": dur["engine.split"],
        "engine.finish_s": self_time["engine.pi_digits"],
        "verifier.exact_s": dur["verifier.exact"],
        "verifier.numeric_s": dur["verifier.numeric"],
        "odot.fold_s": dur["odot.fold"],
        "odot.fold_steps": counts["odot.fold"],
        "fixedpoint.atan_s": atan_outside_pi,
        "fixedpoint.pi_s": dur["fixedpoint.pi"],
        "sequences.uv_s": dur["sequences.uv"],
        "generator.build_s": dur["generator.build"],
        "values.normalize_s": dur["values.normalize"],
        "values.radicand_digits": counts["values.normalize"],
        "values.squarefree_s": dur["values.squarefree"],
        "textio.parse_s": dur["textio.parse"],
        "textio.format_s": dur["textio.format"],
        "textio.bytes": counts["textio.parse"] + counts["textio.format"],
        "cli.overhead_s": self_time["cli.run"],
    }
