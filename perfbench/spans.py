"""Span recording for the traced run.

Spans are recorded from outside the package: ``instrument`` swaps a wrapper
in for a module attribute (the name a caller looks up at call time) and puts
the original back on exit.  Each span keeps its name, start, end and the span
that was open when it began; the recorder holds them in memory until the run
writes them out.  Counters are updated right after each wrapped call, with
the recorder's clock stopped, so that counting shows in no span and no
call's result outlives the call.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans and counters of one process, nested by the order the
    spans open.  ``count(counts, name, args, result)`` updates the counters
    after each wrapped call."""

    def __init__(self, clock=time.perf_counter, count: Optional[Callable] = None):
        self._clock = clock
        self._stopped = 0.0  # clock time spent counting
        self.count = count
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[Span] = []
        self._open: list[int] = []

    def now(self) -> float:
        return self._clock() - self._stopped

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self.now(), 0.0, parent))
        self._open.append(index)
        try:
            yield index
        finally:
            self.spans[index].end = self.now()
            self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if self.count is not None:
                start = self._clock()
                self.count(self.counts, name, args, result)
                self._stopped += self._clock() - start
            return result

        return traced

    def to_rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


@dataclass(frozen=True)
class Tracing:
    """What a traced pass wraps, counts and reports."""

    targets: list  # (module, attribute looked up at call time, span name)
    count: Callable  # count(counts, span name, args, result)
    summarize: Callable  # summarize(recorder) -> the metrics of one pass


@contextlib.contextmanager
def instrument(recorder: Recorder, targets):
    """Wrap ``(module, attribute, span name)`` targets for the duration."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children.setdefault(span.parent, []).append((lo, hi))
    return [
        span.duration - _covered(children.get(i, [])) for i, span in enumerate(spans)
    ]
