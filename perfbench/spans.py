"""In-memory spans recorded around public calls, and their self time.

A span holds its name, start and end (host seconds from `perf_counter`),
the id of the span open when it started, and the replication it belongs
to. Spans stay in memory while the benchmark measures and are written out
once it ends.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    rep: int     # replication id; -1 for spans outside any replication


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.rep = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        s = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.rep)
        self.spans.append(s)
        self._open.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_s", "end_s", "parent", "rep"])
            for s in self.spans:
                out.writerow([s.id, s.name, repr(s.start), repr(s.end), s.parent, s.rep])


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    ]
