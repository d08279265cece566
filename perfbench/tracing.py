"""Spans and counters for the traced run, recorded from outside the program.

A :class:`Tracer` keeps spans in memory: name, start, end, the span that
was open when it began (its parent) and the operation it belongs to.  A
layer's self time is its span's duration minus the time its child spans
cover.  Spans come from two places, both in this directory:

* calls the benchmark itself makes into a layer (``QueryPlan.run``,
  ``compile_plan``, the workload generators), wrapped with
  :meth:`Tracer.span`;
* methods of the program's classes, wrapped for the duration of the
  traced run with :meth:`Tracer.patch` and restored afterwards.

Nothing here changes what the program computes; the untraced run never
installs a wrapper, so end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op index]
        self.counters = {}   # name -> summed count over traced operations
        self.op = -1         # index of the operation now running
        self._stack = []
        self._patched = []

    # -- recording ----------------------------------------------------------

    def begin(self, name, start=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([
            name, perf_counter() if start is None else start, None,
            parent, self.op,
        ])
        self._stack.append(len(self.spans) - 1)

    def end(self, end=None):
        index = self._stack.pop()
        self.spans[index][2] = perf_counter() if end is None else end

    def add(self, name, start, end):
        """Record a closed span measured by the caller (no children)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op])

    @contextmanager
    def span(self, name):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    # -- wrapping program methods -------------------------------------------

    def patch(self, owner, attribute, name):
        """Wrap ``owner.attribute`` (a method or module function) so each
        call records a span called ``name``; :meth:`restore` undoes it."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end()

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- reading ------------------------------------------------------------

    def _child_time(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def durations(self):
        """Per span name: ``(total seconds, self seconds)``."""
        child = self._child_time()
        totals = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            total, own = totals.get(name, (0.0, 0.0))
            totals[name] = (
                total + (end - start), own + (end - start) - child[index]
            )
        return totals

    def write(self, path, extra):
        """Write every span (with its self time) and the counters."""
        child = self._child_time()
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["spans"] = [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent if parent >= 0 else None,
                "op": op,
                "self": (end - start) - child[index],
            }
            for index, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        doc["counters"] = self.counters
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
