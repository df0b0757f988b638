"""Spans recorded around calls into arcsort, and the statistics drawn from them.

A span has a name, a start and an end (``perf_counter_ns``), the id of the
span that caused it, and the id of the workload run it belongs to.  Spans
live in memory and are written out once, when the run ends.

The same ``Span`` object also times the untraced run: a disabled tracer
hands out spans that measure but are never stored, so traced and untraced
timings pass through identical code and differ only by the recording.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path


class Span:
    __slots__ = ("tracer", "id", "name", "parent", "start", "end", "attrs")

    def __init__(self, tracer: "Tracer", span_id: int, name: str, parent: int | None):
        self.tracer = tracer
        self.id = span_id
        self.name = name
        self.parent = parent
        self.attrs: dict[str, float] = {}

    def __enter__(self) -> "Span":
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter_ns()
        if self.tracer.enabled:
            self.tracer.spans.append(self)

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


class Tracer:
    """Hands out spans; keeps them only when ``enabled``."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._next_id = 0
        self._children: dict[int | None, list[Span]] | None = None

    def span(self, name: str, parent: int | None = None) -> Span:
        self._next_id += 1
        return Span(self, self._next_id, name, parent)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        """Child spans of ``span``; call only once the run has ended."""
        if self._children is None:
            self._children = {}
            for s in self.spans:
                self._children.setdefault(s.parent, []).append(s)
        return self._children.get(span.id, [])

    def self_ns(self, span: Span) -> int:
        """Duration minus the time its child spans cover.

        Children here never overlap one another, so the time they cover is
        the sum of their durations.  Replayed children run after their
        parent ends; their sum is still the parent's time spent in them.
        """
        return span.ns - sum(c.ns for c in self.children(span))

    def write(self, path: Path) -> None:
        spans = [
            {
                "id": s.id, "name": s.name, "parent": s.parent, "run": self.run_id,
                "start_ns": s.start, "end_ns": s.end, **s.attrs,
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        path.write_text(json.dumps({"run": self.run_id, "spans": spans}) + "\n")


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def fit_pass_costs(points: list[tuple[int, int, int]]) -> tuple[float, float]:
    """Least-squares ``ns = a * passes + b * comparisons``, no intercept.

    Returns ``(a, b)``: per-pass overhead and scan cost per compared element,
    both in ns.  ``points`` holds ``(passes, comparisons, ns)`` per call.
    """
    spp = sum(p * p for p, _, _ in points)
    spc = sum(p * c for p, c, _ in points)
    scc = sum(c * c for _, c, _ in points)
    spt = sum(p * t for p, _, t in points)
    sct = sum(c * t for _, c, t in points)
    det = spp * scc - spc * spc
    if det == 0:
        raise ValueError("pass-cost fit needs calls of at least two sizes")
    return (spt * scc - sct * spc) / det, (sct * spp - spt * spc) / det
