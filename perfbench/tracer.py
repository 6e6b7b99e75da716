"""Span tracer for the traced run.

Wraps a function where its caller looks it up (a module global or a class
attribute), records one span per call, and keeps per-name totals: calls,
total time, and the part of that time covered by the caller's direct child
spans, from which self time follows.  The first ``cap`` spans are kept
whole in memory and written out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self, cap: int = 50_000):
        self.cap = cap
        self.spans = []                 # (id, parent id, name, start ns, end ns)
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.child_ns = defaultdict(int)
        self.counters = defaultdict(int)
        self._stack = []                # [span id, child ns] of the open spans
        self._next_id = 0
        self._patched = []

    def wrap(self, name, fn, on_call=None, on_result=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``on_call(args, kwargs)`` runs before the call and ``on_result(args,
        kwargs, result)`` after it, both outside the timed interval.
        """
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.child_ns[name] += frame[1]
                if len(self.spans) < self.cap:
                    self.spans.append((span_id, parent, name, start, end))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, **hooks) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`restore`.

        A missing attribute is reported and skipped, so the layer reads as
        not exercised instead of stopping the run.
        """
        original = vars(owner).get(attr)     # own attribute only, so restore() is exact
        if original is None:
            print(f"trace: {getattr(owner, '__name__', owner)}.{attr} not found; "
                  f"{name} is not traced", file=sys.stderr)
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_ns(self, name) -> int:
        return self.total_ns[name] - self.child_ns[name]

    def table(self) -> dict:
        return {name: {"calls": self.calls[name], "total_ns": self.total_ns[name],
                       "self_ns": self.self_ns(name)} for name in sorted(self.calls)}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "name", "start_ns", "end_ns"),
                                             span))) + "\n")
