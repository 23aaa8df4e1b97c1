"""Spans and counts recorded around calls into hashclust's public functions.

The tracer wraps functions under the names the program calls them by (for
example ``training.build_buckets`` or ``wire.local_round``), so no line of the
program changes. Each call becomes a span: (id, name, thread, start, end,
parent). A span's parent is the innermost open span of the same thread; the
first span of a thread started by the program (a wire site thread) takes the
current benchmark operation as its parent. Spans and counts stay in memory
until ``write`` dumps them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from functools import wraps


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, thread ident, start, end, parent id or None)
        self.counts = Counter()
        self.root = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched = []

    def count(self, name: str, amount=1) -> None:
        self.counts[name] += amount

    def wrap(self, fn, name, on_call=None, root=False):
        """Traced stand-in for ``fn``: each call records one span.

        ``name`` is a span name, or a function of the call's arguments that
        returns one. ``on_call(result, *args, **kwargs)`` records counts. A
        ``root`` span parents the first spans of other threads while it runs.
        """
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self.root
            span_id = next(ids)
            stack.append(span_id)
            if root:
                self.root = span_id
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if root:
                    self.root = parent
                spans.append((span_id, span_name, threading.get_ident(), start, end, parent))
            if on_call is not None:
                on_call(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name, on_call=None, root=False) -> None:
        """Replace ``owner.attr`` by its traced stand-in until ``unpatch``."""
        original = owner.__dict__[attr]
        if isinstance(original, property):
            replacement = property(self.wrap(original.fget, name, on_call, root))
        else:
            replacement = self.wrap(original, name, on_call, root)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """Per span name: call count, summed duration, summed self time.

        Self time is a span's duration minus the union of the intervals its
        child spans cover inside it; children may run on other threads.
        """
        children = defaultdict(list)
        for span_id, _name, _thread, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for span_id, name, _thread, start, end, _parent in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
        return out

    def write(self, path) -> None:
        """Dump every span and count as one JSON document."""
        doc = {
            "fields": ["id", "name", "thread", "start", "end", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "totals": self.totals(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
