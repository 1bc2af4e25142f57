"""Spans recorded from outside the program, by swapping module-level names.

Each probe replaces the name a caller looks up (for example
``auvform.engine.allocate``, which ``engine.step`` resolves at call time)
with a wrapper that records a span and calls the original.  Nothing under
``src/`` is edited.  ``restore`` puts every original back and checks that
it did.

A span is ``(name_id, start_ns, end_ns, parent, trace_id, tag)``: ``parent``
is the index of the enclosing span or -1, ``trace_id`` numbers the
``engine.step`` call the span belongs to (-1 outside any step), and ``tag``
is a small value a probe derives from the call (batch rows, points, a
saturation flag) so that ratios are counted where the work happens.
"""

from __future__ import annotations

import gzip
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory span recorder that owns the name swaps it made."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self._stack = [-1]
        self._trace = [-1]
        self._swaps: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, tag=None, root: bool = False) -> None:
        """Swap ``owner.attr`` for a recording wrapper.

        tag(args, kwargs, result) -> value stored with the span.  root=True
        starts a new trace id (one per engine.step).
        """
        original = owner.__dict__[attr]
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, trace = self.spans, self._stack, self._trace

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            if root:
                trace.append(index)
            trace_id = trace[-1]
            start = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[index] = (name_id, start, perf_counter_ns(), parent, trace_id, None)
                raise
            finally:
                stack.pop()
                if root:
                    trace.pop()
            end = perf_counter_ns()
            value = tag(args, kwargs, result) if tag is not None else None
            spans[index] = (name_id, start, end, parent, trace_id, value)
            return result

        setattr(owner, attr, wrapper)
        self._swaps.append((owner, attr, original))

    def restore(self) -> bool:
        """Put every swapped name back; True when each one is the original."""
        for owner, attr, original in reversed(self._swaps):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original for owner, attr, original in self._swaps)
        self._swaps.clear()
        return ok

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns: name id, parent, trace id, duration and self time (ns)."""
        cols = np.array([span[:5] for span in self.spans], dtype=np.int64).reshape(-1, 5)
        name, start, end, parent, trace = cols.T
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name": name, "parent": parent, "trace": trace, "dur": dur, "self": dur - children}

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent,trace_id,tag\n")
            for i, (name_id, start, end, parent, trace, value) in enumerate(self.spans):
                if value is None:
                    tag = ""
                elif isinstance(value, tuple):
                    tag = ";".join(str(v) for v in value)
                else:
                    tag = value
                fh.write(f"{i},{self.names[name_id]},{start},{end},{parent},{trace},{tag}\n")
