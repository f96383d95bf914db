"""In-memory spans around the benchmark's calls into ``nwtk``.

A traced run wraps every call the benchmark makes into a public ``nwtk``
function in a span (name, start, end, parent, item id).  Each item is a
root span.  Spans stay in memory until the run ends; ``self_times`` then
turns them into per-name self time, the span's duration minus the part
covered by its child spans.
"""

from __future__ import annotations

import json
from time import perf_counter


class NullTracer:
    """Tracing off: ``call`` is a plain call."""

    @staticmethod
    def call(name, fn, *args, tag=None):
        return fn(*args)

    def item(self, item_id, fn, *args):
        return fn(*args)


class Tracer:
    """Tracing on: one span per call, kept as tuples in ``spans``.

    A span is ``(name, start, end, parent_index, item_id, tag)``; the root
    span of an item has parent ``None`` and name ``"item"``.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._item = None

    def call(self, name, fn, *args, tag=None):
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self._item, tag)

    def item(self, item_id, fn, *args):
        self._item = item_id
        try:
            return self.call("item", fn, *args)
        finally:
            self._item = None

    def self_times(self):
        """Per name: [self seconds, calls]; tagged spans also under
        ``name + "." + tag``."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for index, (name, start, end, _, _, tag) in enumerate(self.spans):
            own = end - start - child[index]
            keys = (name, f"{name}.{tag}") if tag else (name,)
            for key in keys:
                entry = out.setdefault(key, [0.0, 0])
                entry[0] += own
                entry[1] += 1
        return out

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            fields = ("name", "start", "end", "parent", "item", "tag")
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")
