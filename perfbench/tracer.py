"""In-memory span recording around citegauge's public functions.

The benchmark wraps module attributes and class methods from the outside, so
the program itself is unchanged.  A span records name, start, end, the span
that caused it, its thread, the operation (trace id) and group (one report
run or one ingest job) it belongs to, and a few attributes taken from the
call's arguments and result.  Spans stay in memory until `dump`.

Self time is a span's duration minus the part of its interval that its
child spans cover (children may run on other threads, so intervals are
merged before they are subtracted).
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, trace, group, name, thread, start, end, attrs)
        self.trace = None        # operation id for spans that do not name one
        self.group = None
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._patched = []       # (owner, attr, original)

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, trace=None, attrs=None):
        """Run fn(*args, **kwargs) inside a span; attrs(result) adds attributes."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's outermost span was caused by whatever the
            # main thread has open (build_corpus for ingest)
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            # recorded on the error path too: faults and restarts are work
            end = time.perf_counter()
            stack.pop()
            extra = attrs(result) if attrs is not None and result is not None else None
            self.spans.append((span_id, parent, trace or self.trace, self.group,
                               name, threading.get_ident(), start, end, extra))

    def wrap(self, owner, attr, name, trace_of=None, attrs=None):
        """Replace owner.attr with a span-recording wrapper until uninstall().

        trace_of(args) names the operation a call belongs to when the
        current one does not (worker threads of ingest).
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            trace = trace_of(args) if trace_of is not None else None
            return self.call(name, original, args, kwargs, trace, attrs)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(
                    {"id": s[0], "parent": s[1], "trace": s[2], "group": s[3],
                     "name": s[4], "thread": s[5], "start": s[6], "end": s[7],
                     "attrs": s[8]}) + "\n")


def load_spans(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """span id -> self time (duration minus the union of its children)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children.get(s["id"], ()), s["start"], s["end"])
            for s in spans}


def per_group(spans):
    """{group: {name: {"calls", "s", "self_s", "attrs": [..]}}} from spans."""
    selfs = self_times(spans)
    out = defaultdict(lambda: defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "attrs": []}))
    for s in spans:
        entry = out[s["group"]][s["name"]]
        entry["calls"] += 1
        entry["s"] += s["end"] - s["start"]
        entry["self_s"] += selfs[s["id"]]
        if s["attrs"]:
            entry["attrs"].append(s["attrs"])
    return out
