"""Span tracing around flexcbs's public call sites, installed from outside.

A Tracer replaces names where their callers look them up (a module global
such as `flexcbs.highlevel.focal_search`, or a method on a class) with
wrappers that record one span per call: name, start, end, parent span and
instance id. Spans stay in memory; `layer_metrics` turns them into per-layer
calls, total time and self time, and `write_spans` dumps them as JSON lines.
`restore` puts every original back, so later untraced solves in the same
process run the program's own code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from flexcbs import conflicts, flex, highlevel
from flexcbs.conflicts import Classifier, ConflictClass
from flexcbs.highlevel import Frontier, Solver

FLEX_SPAN = "flex.compute"
CLASSES = [c.name.lower() for c in ConflictClass
           if c is not ConflictClass.UNCLASSIFIED]
# the modes an MFD run can report; gfd is its fallback when no slack is left
FLEX_MODES = ("mfd-dfd", "mfd-cfd", "mfd-frontier", "mfd-zero", "gfd")


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, instance id)
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: dict[str, int] = {}
        self.failed_search_s = 0.0
        self.instance = ""
        self._stack: list[tuple[int, str]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_pop_depth: int | None = None

    # ---------------- recording ----------------

    def _count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        """A span around a call made by the benchmark itself."""
        stack, spans = self._stack, self.spans
        parent = stack[-1][0] if stack else -1
        idx = len(spans)
        spans.append((name, 0.0, 0.0, parent, self.instance))
        stack.append((idx, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.instance)

    def _wrap(self, owner, attr: str, name: str, observe=None):
        """Replace owner.attr by a span-recording wrapper.

        observe(args, result, duration, parent_name) runs after each call
        that returned normally.
        """
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, "")
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent, self.instance))
            stack.append((idx, name))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.instance)
            if observe is not None:
                observe(args, result, end - start, parent_name)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    # ---------------- observers ----------------

    def _on_search(self, _args, result, duration, _parent):
        if result is None:
            self._count("lowlevel.search.failed")
            self.failed_search_s += duration
        else:
            self._count("lowlevel.search.expansions", result.expansions)

    def _on_classify(self, _args, result, _duration, _parent):
        self._count("conflicts.class." + result.cls.name.lower())

    def _on_make_child(self, _args, result, _duration, _parent):
        if result is None:
            self._count("highlevel.make_child.pruned")

    def _on_flex(self, _args, result, _duration, parent):
        # mfd_flex calls dfd_flex/cfd_flex itself; count only the result
        # handed back to the solver
        if parent != FLEX_SPAN:
            self._count("flex.mode." + result.mode_used)

    def _on_pop(self, _args, result, _duration, _parent):
        self._last_pop_depth = result.depth if result is not None else None

    def _on_push(self, args, _result, _duration, _parent):
        # bypass pushes a node at the popped node's own depth; children
        # sit one level deeper
        if self._last_pop_depth is not None and args[1].depth == self._last_pop_depth:
            self._count("highlevel.bypass.adopted")

    # ---------------- install / restore ----------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._last_pop_depth = None
        w = self._wrap
        w(highlevel, "compute_h", "lowlevel.compute_h")
        w(highlevel, "focal_search", "lowlevel.search", self._on_search)
        w(highlevel, "fastar_search", "lowlevel.search", self._on_search)
        w(highlevel, "Occupancy", "lowlevel.occupancy")
        w(highlevel, "detect_conflicts", "conflicts.detect")
        w(highlevel, "ConstraintTable", "constraints.table")
        w(conflicts, "ConstraintTable", "constraints.table")
        w(conflicts, "earliest_arrival", "lowlevel.earliest_arrival")
        w(conflicts, "find_corridor", "conflicts.find_corridor")
        for fn in ("gfd_flex", "cfd_flex", "dfd_flex", "mfd_flex"):
            w(flex, fn, FLEX_SPAN, self._on_flex)
        w(Classifier, "classify", "conflicts.classify", self._on_classify)
        w(Solver, "make_root", "highlevel.make_root")
        w(Solver, "make_child", "highlevel.make_child", self._on_make_child)
        w(Solver, "solve", "highlevel.solve")
        w(Frontier, "push", "highlevel.frontier.push", self._on_push)
        w(Frontier, "pop_best", "highlevel.frontier.pop", self._on_pop)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ---------------- reporting ----------------

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds); self time is the
        span's duration minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _inst in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for idx, (name, start, end, _parent, _inst) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[idx]
        return {name: tuple(row) for name, row in out.items()}

    def write_spans(self, path: str):
        with open(path, "w") as f:
            for name, start, end, parent, inst in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "instance": inst}) + "\n")


def layer_metrics(tracer: Tracer, ct: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    ct holds the summed RunMetrics of the traced solves: generated, expanded,
    depth and gb_generated.
    """
    times = tracer.layer_times()
    counts = tracer.counts

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    search_calls = calls("lowlevel.search")
    failed = counts.get("lowlevel.search.failed", 0)
    expansions = counts.get("lowlevel.search.expansions", 0)
    out = {
        "map_io.load_s": (total("map_io.load"), "s"),
        "lowlevel.compute_h.calls": (calls("lowlevel.compute_h"), "count"),
        "lowlevel.compute_h_s": (total("lowlevel.compute_h"), "s"),
        "lowlevel.search.calls": (search_calls, "count"),
        "lowlevel.search_s": (total("lowlevel.search"), "s"),
        "lowlevel.search.expansions": (expansions, "count"),
        "lowlevel.search.expansions_per_s":
            (ratio(expansions, total("lowlevel.search")), "1/s"),
        "lowlevel.search.failed": (failed, "count"),
        "lowlevel.search.failed_s": (tracer.failed_search_s, "s"),
        "lowlevel.search.ok_ratio":
            (ratio(search_calls - failed, search_calls), "ratio"),
        "lowlevel.occupancy.calls": (calls("lowlevel.occupancy"), "count"),
        "lowlevel.occupancy_s": (total("lowlevel.occupancy"), "s"),
        "lowlevel.earliest_arrival.calls":
            (calls("lowlevel.earliest_arrival"), "count"),
        "lowlevel.earliest_arrival_s": (total("lowlevel.earliest_arrival"), "s"),
        "constraints.table.calls": (calls("constraints.table"), "count"),
        "constraints.table_s": (total("constraints.table"), "s"),
        "conflicts.detect_s": (total("conflicts.detect"), "s"),
        "conflicts.classify.calls": (calls("conflicts.classify"), "count"),
        "conflicts.classify_s": (total("conflicts.classify"), "s"),
        "conflicts.classify.self_s": (self_time("conflicts.classify"), "s"),
        "conflicts.classify.useful_ratio":
            (ratio(ct["expanded"], calls("conflicts.classify")), "ratio"),
        "conflicts.find_corridor.calls": (calls("conflicts.find_corridor"), "count"),
        "conflicts.find_corridor_s": (total("conflicts.find_corridor"), "s"),
        "highlevel.setup_s": (total("highlevel.setup"), "s"),
        "highlevel.make_root_s": (total("highlevel.make_root"), "s"),
        "highlevel.make_child.calls": (calls("highlevel.make_child"), "count"),
        "highlevel.make_child_s": (total("highlevel.make_child"), "s"),
        "highlevel.make_child.self_s": (self_time("highlevel.make_child"), "s"),
        "highlevel.make_child.pruned":
            (counts.get("highlevel.make_child.pruned", 0), "count"),
        "highlevel.frontier.push.calls": (calls("highlevel.frontier.push"), "count"),
        "highlevel.frontier.pop.calls": (calls("highlevel.frontier.pop"), "count"),
        "highlevel.frontier_s": (total("highlevel.frontier.push")
                                 + total("highlevel.frontier.pop"), "s"),
        "highlevel.solve.self_s": (self_time("highlevel.solve"), "s"),
        "highlevel.bypass.adopted":
            (counts.get("highlevel.bypass.adopted", 0), "count"),
        "highlevel.ct.generated": (ct["generated"], "count"),
        "highlevel.ct.expanded": (ct["expanded"], "count"),
        "highlevel.ct.depth": (ct["depth"], "count"),
        "highlevel.ct.gb_ratio": (ratio(ct["gb_generated"], ct["generated"]), "ratio"),
        "oracle.validate_s": (total("oracle.validate"), "s"),
    }
    for cls in CLASSES:
        out["conflicts.class." + cls] = (counts.get("conflicts.class." + cls, 0),
                                         "count")
    for mode in FLEX_MODES:
        out["flex.mode." + mode] = (counts.get("flex.mode." + mode, 0), "count")
    return out
