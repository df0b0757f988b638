"""Operation counters shared by all sorts."""

from __future__ import annotations


class SortMetrics:
    """Running totals of element-level work done by one or more sort calls.

    comparisons counts element-to-element order tests, swaps counts
    two-element exchanges, and writes counts single element stores
    (insertion sort's shifts).  Counters accumulate across calls; a fresh
    instance starts a fresh measurement.  Two instances are equal when all
    three counts are; like any mutable record, it is unhashable.
    """

    def __init__(self, comparisons: int = 0, swaps: int = 0, writes: int = 0) -> None:
        self.comparisons = comparisons
        self.swaps = swaps
        self.writes = writes

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(comparisons={self.comparisons!r}, "
            f"swaps={self.swaps!r}, writes={self.writes!r})"
        )

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.comparisons, self.swaps, self.writes) == (
            other.comparisons, other.swaps, other.writes  # type: ignore[attr-defined]
        )
