"""In-memory spans around the benchmark's own calls into diagcat.

A span is (name, start, end, parent, op): ``name`` is ``<layer>.<call>``,
``parent`` is the index of the enclosing span (-1 for a root) and ``op``
is the id of the workload operation the span belongs to.  Start and end
are raw readings of the clock the tracer is given; durations are
converted by the caller.  Spans stay in
memory and are written out once, when the worker ends.  ``NullTracer``
has the same interface and records nothing; end-to-end runs use it.
"""

from __future__ import annotations

import json

LAYERS = (
    "partitions",
    "cobordisms",
    "annular",
    "auxmonoids",
    "identities",
    "serialize",
    "suite",
)


class NullTracer:
    enabled = False

    def call(self, name, op, fn, *args):
        return fn(*args)


class Tracer:
    enabled = True

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, op, fn, *args):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        try:
            return fn(*args)
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def self_times(self, duration) -> dict[str, float]:
        """Seconds per layer spent in spans of that layer minus the part
        covered by their child spans, with ``duration(start, end)``
        converting clock readings to seconds.  Spans outside the diagcat
        layers (the benchmark's own per-operation roots) count as
        ``bench``."""
        lengths = [duration(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent, _), length in zip(self.spans, lengths):
            if parent >= 0:
                child[parent] += length
        out: dict[str, float] = {}
        for (name, _, _, _, _), length, covered in zip(self.spans, lengths, child):
            layer = name.split(".", 1)[0]
            if layer not in LAYERS:
                layer = "bench"
            out[layer] = out.get(layer, 0.0) + length - covered
        return out

    def durations(self, name: str, duration) -> list[float]:
        return [duration(start, end) for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )
