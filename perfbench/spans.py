"""In-memory spans and counters for the traced benchmark run, plus the
order statistics every timing is reported with.

A span records one call into a gorquad layer made by the benchmark itself:
its name, start and end, the span that was open around it and the request
(census form index or job name) it belongs to.  Nothing here reaches into
the library; spans only wrap the benchmark's own calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median


def tail(values) -> float:
    """The highest empirical percentile with at least ten samples above it,
    i.e. the (n-10)-th smallest value.  Below twenty samples that would sit
    under the median, so the maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11] if n >= 20 else ordered[-1]


def tail_label(n: int) -> str:
    """Which percentile `tail` picked, for the human-readable report."""
    if n < 20:
        return "max"
    return f"p{100 * (n - 10) / n:.1f}"


def timing_metrics(name: str, durations) -> dict:
    """calls, busy_s, p50_ms and tail_ms for one span name, as
    {metric: (value, unit)}; a span the workload never enters reports zero
    calls and zero time."""
    d = list(durations)
    return {
        f"{name}.calls": (len(d), "count"),
        f"{name}.busy_s": (sum(d), "s"),
        f"{name}.p50_ms": (1e3 * median(d) if d else 0.0, "ms"),
        f"{name}.tail_ms": (1e3 * tail(d) if d else 0.0, "ms"),
    }


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: object


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _open: list = field(default_factory=list)

    @contextmanager
    def span(self, name: str, request=None):
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, request))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def durations(self, name: str) -> list:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list:
        """Each span's duration minus the time its direct children cover."""
        covered = {}
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] = covered.get(s.parent, 0.0) + s.end - s.start
        return [s.end - s.start - covered.get(i, 0.0)
                for i, s in enumerate(self.spans) if s.name == name]

    def root_total(self, names) -> float:
        return sum(s.end - s.start for s in self.spans
                   if s.parent is None and s.name in names)


class NullTracer:
    """Takes the place of a Tracer in untraced runs and records nothing."""

    @contextmanager
    def span(self, name: str, request=None):
        yield

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def peak(self, name: str, value: int) -> None:
        pass
