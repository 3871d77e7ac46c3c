"""In-memory spans recorded around calls into sifgps, and their self times.

A span is ``[name, start, end, parent, iteration, counts]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``iteration`` the id shared by
the spans of one set-up or iteration, and ``counts`` the work counted at the
same boundary.  Nothing is recorded inside sifgps itself.
"""

from __future__ import annotations

import contextlib
import statistics
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, it=None, **counts):
        parent = self._open[-1] if self._open else -1
        if it is None and parent >= 0:
            it = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, it, counts]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._open.pop()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    _null = contextlib.nullcontext([None, 0.0, 0.0, -1, None, {}])

    def span(self, name: str, it=None, **counts):
        return self._null


class SpanIndex:
    """Self times and root of every span, for per-layer metrics."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.self_s = [end - start for _, start, end, _, _, _ in spans]
        self.root = list(range(len(spans)))
        for i, (_, start, end, parent, _, _) in enumerate(spans):
            if parent >= 0:
                self.self_s[parent] -= end - start
                self.root[i] = self.root[parent]

    def calls(self, name: str, root: str) -> list[int]:
        """Indices of spans called ``name`` under roots called ``root``."""
        return [i for i, span in enumerate(self.spans)
                if span[0] == name and self.spans[self.root[i]][0] == root]

    def per_root(self, name: str, root: str) -> list[float]:
        """Per root called ``root``: summed self time (s) of its ``name`` spans."""
        sums: dict[int, float] = {}
        for i in self.calls(name, root):
            sums[self.root[i]] = sums.get(self.root[i], 0.0) + self.self_s[i]
        return list(sums.values())


def median_ms(values: list[float]) -> float:
    """Median of times in seconds, in ms; 0 when the layer was not called."""
    return 1000.0 * statistics.median(values) if values else 0.0
