"""In-memory span recorder and the self-time reduction.

A span is recorded around each public call the benchmark makes into the
package: name, layer, start, end, parent span and free fields (operation
id, ring, s, route).  Spans stay in memory; the caller writes them out
once when the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, layer: str, **fields):
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": self._open[-1]["id"] if self._open else None,
               **fields}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()


class NullTracer:
    """The untraced mode: same call sites, nothing recorded."""

    @contextmanager
    def span(self, name: str, layer: str, **fields):
        yield {}


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus the time its direct
    children cover.  The benchmark is single-threaded, so children never
    overlap and their durations simply add up."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["layer"]] += s["end"] - s["start"] - covered[s["id"]]
    return dict(out)
