"""In-memory spans and counters recorded from the benchmark side.

A span is one public call into the library (or one CLI subprocess, or one
benchmark op) with its name, cone tag, start, end, parent span and op id.
Spans live in a list until the run ends; nothing is written while timing.
``NoTrace`` has the same interface and records nothing, so the untraced run
pays one extra Python call per library call and nothing else.
"""

from __future__ import annotations

from time import perf_counter


class NoTrace:
    op = -1

    def begin(self, name: str, tag: str = "") -> None:
        pass

    def end(self) -> None:
        pass

    def call(self, name: str, tag: str, fn, *args):
        return fn(*args)

    def count(self, name: str, k: float = 1) -> None:
        pass


class Tracer(NoTrace):
    """Spans are lists ``[name, tag, start, end, parent, op]``; ``parent`` is
    the index of the enclosing span or -1."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack = [-1]

    def begin(self, name: str, tag: str = "") -> None:
        self._stack.append(len(self.spans))
        self.spans.append([name, tag, perf_counter(), 0.0, self._stack[-2], self.op])

    def end(self) -> None:
        self.spans[self._stack.pop()][3] = perf_counter()

    def call(self, name: str, tag: str, fn, *args):
        self.begin(name, tag)
        try:
            return fn(*args)
        finally:
            self.end()

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def write_spans(spans: list[list], path) -> None:
    """One CSV line per span, times in microseconds from the first span."""
    t0 = spans[0][2] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id,name,tag,start_us,end_us,parent,op\n")
        for i, (name, tag, start, end, parent, op) in enumerate(spans):
            fh.write(f"{i},{name},{tag},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},{parent},{op}\n")
