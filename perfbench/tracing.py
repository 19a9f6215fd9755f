"""In-memory span tracer for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into the
package's public functions; nothing inside ``src/`` is instrumented. Each
span is ``[name, start, end, parent, op_id]`` with ``parent`` the index of
the enclosing span (-1 at top level). Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Tracing off: spans and counts cost one attribute lookup."""

    enabled = False
    op_id = 0
    _null = nullcontext()

    def span(self, name):
        return self._null

    def add(self, metric, value):
        pass

    def peak(self, metric, value):
        pass


class Tracer:
    """Records spans plus per-cycle work counts."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.op_id = 0
        self.counts = defaultdict(float)
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def add(self, metric, value):
        """Accumulate a work count computed from a public return value."""
        self.counts[metric] += value

    def peak(self, metric, value):
        """Keep the largest value seen in the current cycle."""
        self.counts[metric] = max(self.counts[metric], value)

    def take_counts(self) -> dict:
        out = dict(self.counts)
        self.counts.clear()
        return out


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    Spans are recorded by one thread, so children never overlap and their
    durations add up.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def cycle_totals(spans, selfs, lo: int, hi: int) -> dict:
    """``<span>.calls`` and ``<span>.self_s`` summed over spans[lo:hi]."""
    out = defaultdict(float)
    for i in range(lo, hi):
        name = spans[i][0]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += selfs[i]
    return out
