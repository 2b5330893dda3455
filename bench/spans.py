"""Span tracer for the traced benchmark run.

It rebinds the public functions and methods of quasigray, for this
process only, with wrappers that time each call. Every span adds its
duration to its parent's child time, so self time is a span's duration
minus its children. Spans are aggregated per (operation label, name,
inside a counter step or not); the first SPAN_CAP raw spans are also kept
in memory and written out with the trace.
"""

from __future__ import annotations

import time

SPAN_CAP = 50_000

# (attribute path under a quasigray module, span name)
TARGETS = [
    ("core.Counter.next", "Counter.next"),
    ("core.Counter.prev", "Counter.prev"),
    ("graycode.gray_rank", "graycode.gray_rank"),
    ("graycode.gray_unrank", "graycode.gray_unrank"),
    ("compose.gray_rank", "compose.gray_rank"),
    ("compose.gray_unrank", "compose.gray_unrank"),
    ("core.Tape.read", "Tape.read"),
    ("core.Tape.write", "Tape.write"),
    ("core.OffsetTape.read", "OffsetTape.read"),
    ("core.OffsetTape.write", "OffsetTape.write"),
    ("permdecomp.RFunction.apply_tape", "RFunction.apply_tape"),
    ("linear.AddRow.apply_tape", "AddRow.apply_tape"),
    ("linear.Scale.apply_tape", "Scale.apply_tape"),
    ("linear.Field.mul", "Field.mul"),
    ("core.measure_counter", "measure_counter"),
    ("verify.measure_counter", "measure_counter"),
    ("verify.audit", "audit"),
    ("core.materialize", "materialize"),
    ("core.dat_eval", "dat_eval"),
    ("verify.search_hierarchical", "search_hierarchical"),
    ("cli.main", "cli.main"),
]
STEP_NAMES = ("Counter.next", "Counter.prev")  # spans that open a counter step


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.label = "-"
        self.agg: dict = {}  # (label, name, in_step) -> [calls, total_ns, self_ns]
        self.spans: list = []  # (id, parent id, name, label, start_ns, dur_ns)
        self._stack = [0]  # child time of each open span, root first
        self._ids = [0]
        self._next_id = 1
        self._step_depth = 0
        self._saved: list = []

    def _wrap(self, name: str, fn):
        tracer = self
        stack = self._stack
        ids = self._ids
        agg = self.agg
        spans = self.spans
        clock = time.perf_counter_ns
        is_step = name in STEP_NAMES

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            ids.append(sid)
            stack.append(0)
            if is_step:
                tracer._step_depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                ids.pop()
                stack[-1] += dur
                key = (tracer.label, name, tracer._step_depth > 0)
                if is_step:
                    tracer._step_depth -= 1
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0, 0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - child
                if len(spans) < SPAN_CAP:
                    spans.append((sid, ids[-1], name, tracer.label, t0, dur))

        return traced

    def install(self) -> None:
        for path, name in TARGETS:
            mod, *attrs = path.split(".")
            owner = self.modules[mod]
            for a in attrs[:-1]:
                owner = getattr(owner, a)
            orig = getattr(owner, attrs[-1])
            self._saved.append((owner, attrs[-1], orig))
            setattr(owner, attrs[-1], self._wrap(name, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def totals(self, label=None, in_step=None) -> dict:
        """name -> [calls, total_ns, self_ns], summed over labels (or one)."""
        out: dict = {}
        for (lab, name, st), (calls, tot, slf) in self.agg.items():
            if (label is None or lab == label) and (in_step is None or st == in_step):
                a = out.setdefault(name, [0, 0, 0])
                a[0] += calls
                a[1] += tot
                a[2] += slf
        return out

    def labels(self) -> list:
        return sorted({lab for lab, _n, _s in self.agg})
