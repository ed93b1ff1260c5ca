"""Per-layer spans for ``liegen``, recorded from outside the library.

``install(tracer)`` replaces the public functions of each layer by wrappers
that open a span on entry and close it on exit, and returns a function that
restores the originals.  Module-level functions are replaced in every
``liegen`` module that holds them, because ``cli``, ``pingpong`` and
``closure`` bind imported names when they load; methods are replaced on
their classes.  Spans are kept in memory and written by the caller at the
end of a run.

A span is ``[name, start_ns, end_ns, parent_index, invocation]``.  A span's
self time is its duration minus the durations of its direct children; the
spans of one thread nest, so that is the time its children do not cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.invocation = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.seen: defaultdict[str, set] = defaultdict(set)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.invocation])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self.stack.pop()

    def repeat(self, kind: str, key) -> None:
        """Count a call under ``kind`` whose key was seen before."""
        if key in self.seen[kind]:
            self.counts[kind + ".repeats"] += 1
        else:
            self.seen[kind].add(key)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, note=None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if note is not None:
            note(tracer, args, kwargs, result)
        return result

    return traced


# ---------------------------------------------------------------- notes: counters


def _note_closure(tracer, args, kwargs, result) -> None:
    tracer.counts["closure.dim_sum"] += result.dim
    tracer.repeat("closure", tuple(m.rows for m in args[0]))


def _note_insert(tracer, args, kwargs, result) -> None:
    tracer.counts["closure.insert_accepted"] += bool(result)


def _note_matmul(tracer, args, kwargs, result) -> None:
    a, b = args
    if type(b) is type(a):
        tracer.counts["exact.matmul_ops"] += a.n**3


def _note_scan(tracer, args, kwargs, result) -> None:
    tracer.counts["groups.words_checked"] += result.words_checked
    tracer.counts["groups.collisions"] += len(result.collisions)


def _note_bound(tracer, args, kwargs, result) -> None:
    tracer.repeat("pingpong.bound", repr((args, sorted(kwargs.items()))))


# (module attribute or class attribute, span name, counter note)
FUNCTIONS = [
    ("cli.main", "cli.main", None),
    ("generators.shift_pair", "generators.shift_pair", None),
    ("generators.lower_pair", "generators.lower_pair", None),
    ("generators.g2_pair", "generators.g2_pair", None),
    ("closure.subalgebra_closure", "closure.subalgebra_closure", _note_closure),
    ("exact.isolate_largest_positive_root", "exact.isolate", None),
    ("groups.freeness_scan", "groups.scan", _note_scan),
    ("groups.exp_upper", "groups.exp_upper", None),
    ("groups.exp_corner", "groups.exp_corner", None),
    ("groups.exp_lower", "groups.exp_lower", None),
    ("groups.thin_pair", "groups.thin_pair", None),
    ("pingpong.compute_t0", "pingpong.compute_t0", _note_bound),
    ("pingpong.compute_r0", "pingpong.compute_r0", _note_bound),
    ("pingpong.certify_free_dense", "pingpong.certify", None),
]
METHODS = [
    ("exact.SpanBasis", "insert_flat", "exact.insert_flat", _note_insert),
    ("exact.Matrix", "__mul__", "exact.matmul", _note_matmul),
    ("exact.Polynomial", "__call__", "exact.poly_eval", None),
]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced name in the loaded ``liegen`` modules; return an undo."""
    modules = [m for k, m in list(sys.modules.items()) if k == "liegen" or k.startswith("liegen.")]
    undo: list[tuple[object, str, object]] = []
    for path, span, note in FUNCTIONS:
        home, attr = path.split(".")
        original = getattr(sys.modules["liegen." + home], attr)
        wrapped = _wrap(tracer, span, original, note)
        for module in modules:
            if getattr(module, attr, None) is original:
                undo.append((module, attr, original))
                setattr(module, attr, wrapped)
    for path, attr, span, note in METHODS:
        home, cls_name = path.split(".")
        cls = getattr(sys.modules["liegen." + home], cls_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, span, original, note))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------- summaries

# span name -> the per-layer metric prefix it is summed under
GROUP = {
    "cli.main": "cli",
    "generators.shift_pair": "generators",
    "generators.lower_pair": "generators",
    "generators.g2_pair": "generators",
    "closure.subalgebra_closure": "closure",
    "exact.insert_flat": "exact.insert_flat",
    "exact.matmul": "exact.matmul",
    "exact.poly_eval": "exact.poly_eval",
    "exact.isolate": "exact.isolate",
    "groups.scan": "groups.scan",
    "groups.exp_upper": "groups.exp",
    "groups.exp_corner": "groups.exp",
    "groups.exp_lower": "groups.exp",
    "groups.thin_pair": "groups.thin",
    "pingpong.compute_t0": "pingpong.bound",
    "pingpong.compute_r0": "pingpong.bound",
    "pingpong.certify": "pingpong.certify",
}
GROUPS = list(dict.fromkeys(GROUP.values()))


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """calls, busy seconds and self seconds per group, plus nesting counts."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {g: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for g in GROUPS}
    evals_in_isolation = 0
    for (name, start, end, parent, _), children in zip(spans, child_ns):
        row = out[GROUP[name]]
        row["calls"] += 1
        row["busy_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - children) / 1e9
        if name == "exact.poly_eval" and parent >= 0 and spans[parent][0] == "exact.isolate":
            evals_in_isolation += 1
    out["exact.isolate"]["evals_inside"] = evals_in_isolation
    return out
