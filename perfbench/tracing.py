"""Spans around the benchmark's calls into the library.

Every call the benchmark makes into a public function of mchords goes
through ``tracer.call(name, fn, *args)``.  ``NullTracer`` forwards the
call and records nothing; ``Tracer`` keeps one span per call in memory
(name, start, end, parent span, op id, attributes) and writes them all
out at the end of the run.  A layer's self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    memory = False

    def call(self, name, fn, *args, attrs=None, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass


class Tracer:
    def __init__(self):
        # True while the spans should also record tracemalloc peaks; the
        # runner sets it for the warm-up round only, whose times are unused
        self.memory = False
        self.spans = []  # [name, start, end, parent, op, attrs]
        self._stack = []
        self._op = "setup"  # spans before the first op come from set-up

    def _open(self, name, attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._op, attrs])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, attrs=None, **kwargs):
        sid = self._open(name, attrs)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid)

    def begin_op(self, op_id):
        self._op = op_id
        self._open("op", None)

    def end_op(self):
        self._close(self._stack[-1])
        self._op = None

    def self_times(self):
        """{name: [(self seconds, attrs, op), ...]} over all spans."""
        child = defaultdict(float)
        for name, start, end, parent, op, attrs in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(list)
        for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
            out[name].append((end - start - child[sid], attrs, op))
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
