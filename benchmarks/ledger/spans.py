"""Benchmark-side spans: the per-layer trace is recorded here, around
calls into the program's public functions, never inside ``src/``.

A span is ``(id, parent, statement, name, start, end)``.  Spans live in
memory and are written out once, when the run ends.  A layer's *self
time* is its span's duration minus the part of that interval its child
spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

__all__ = ["Span", "SpanRecorder", "self_times"]


@dataclass
class Span:
    id: int
    parent: int | None
    statement: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, statement: int | None = None):
        """Time the enclosed call; nests under the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        if statement is None and parent is not None:
            statement = self.spans[parent].statement
        record = Span(len(self.spans), parent, statement, name,
                      self.clock(), 0.0)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._stack.pop()

    def child(self, parent: Span, name: str, start: float,
              seconds: float) -> Span:
        """A child whose duration the program reported itself (a
        ``Timings`` phase, the scheduler wait) rather than one timed
        here; it is laid at ``start`` inside the parent."""
        record = Span(len(self.spans), parent.id, parent.statement, name,
                      start, start + seconds)
        self.spans.append(record)
        return record

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(asdict(record)) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (clipped to the parent, so a reported child that overruns never
    drives a self time negative)."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {
        s.id: s.duration - _covered(
            [(a, b) for a, b in children.get(s.id, ()) if b > a]
        )
        for s in spans
    }
