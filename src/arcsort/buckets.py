"""Digit-count bucketing and the bucketed sort built on it.

Keys are classified by decimal digit count: bucket 0 collects every
non-positive value (zero included, by convention), bucket b >= 1 collects
the positive values with exactly b digits.  Because the classes cover
disjoint, increasing value ranges, every element of a lower bucket is
smaller than every element of a higher one, so sorting each bucket
independently and concatenating in bucket order sorts the whole input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import index
from typing import Iterable, Sequence

from .metrics import SortMetrics
from .sorts import enhanced_selection_sort

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
# int64 values have at most 19 decimal digits.
MAX_DIGITS = 19


def count_digits(x: int) -> int:
    """Return the bucket index for ``x``: 0 if x <= 0, else its digit count."""
    return len(str(x)) if x > 0 else 0


@dataclass
class BucketTable:
    """Elements grouped by digit class, in arrival order.

    ``buckets[b]`` holds the inputs whose bucket index is ``b``; the last
    bucket is the highest index observed.
    """

    buckets: list[list[int]] = field(default_factory=lambda: [[]])

    @property
    def k(self) -> int:
        """The highest bucket index (0 for empty input)."""
        return len(self.buckets) - 1

    @property
    def occupancy(self) -> list[int]:
        return [len(b) for b in self.buckets]

    @property
    def total(self) -> int:
        return sum(len(b) for b in self.buckets)


def distribute(values: Iterable[int]) -> BucketTable:
    """Scatter values into digit-class buckets, preserving arrival order.

    Keys that are not ``int`` but have ``__index__`` are stored as ints;
    a ``bool`` or any other key raises :class:`TypeError` naming it.
    Raises :class:`OverflowError` naming a key outside the int64 range.
    Only the two end buckets can hold one, so they are range-checked once
    after the scatter; a key of 20 or more digits has no bucket at all.
    """
    buckets: list[list[int]] = [[] for _ in range(MAX_DIGITS + 1)]
    k = 0
    for x in values:
        if type(x) is not int:
            x = _as_int(x)
        b = count_digits(x)
        try:
            buckets[b].append(x)
        except IndexError:
            raise _out_of_range(x) from None
        if b > k:
            k = b
    low, high = buckets[0], buckets[MAX_DIGITS]
    if low and min(low) < INT64_MIN:
        raise _out_of_range(min(low))
    if high and max(high) > INT64_MAX:
        raise _out_of_range(max(high))
    return BucketTable(buckets[: k + 1])


def _as_int(x) -> int:
    # bool has __index__, but len(str(True)) would file it as a 4-digit key
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise TypeError(f"{x!r} is not an integer key")
    return index(x)


def _out_of_range(x: int) -> OverflowError:
    return OverflowError(f"{x} is outside the signed 64-bit range")


def concatenate(table: BucketTable) -> list[int]:
    """Flatten the table in ascending bucket order."""
    return list(chain.from_iterable(table.buckets))


def arc_sort(data: Sequence[int], metrics: SortMetrics | None = None) -> list[int]:
    """Return the values sorted ascending; the input is left untouched.

    Distributes into digit-class buckets, sorts each bucket holding at
    least two elements with :func:`enhanced_selection_sort` (singleton and
    empty buckets are skipped outright), and concatenates in bucket order.
    Metrics accumulate across the per-bucket sorts, so total comparisons
    equal the sum of c(c-1)/2 over bucket occupancies c.
    """
    table = distribute(data)
    for bucket in table.buckets:
        if len(bucket) > 1:
            enhanced_selection_sort(bucket, metrics)
    return concatenate(table)
