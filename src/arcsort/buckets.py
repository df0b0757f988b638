"""Digit-count bucketing and the bucketed sort built on it.

Keys are classified by decimal digit count: bucket 0 collects every
non-positive value (zero included, by convention), bucket b >= 1 collects
the positive values with exactly b digits.  Because the classes cover
disjoint, increasing value ranges, every element of a lower bucket is
smaller than every element of a higher one, so sorting each bucket
independently and concatenating in bucket order sorts the whole input.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from itertools import chain

from .metrics import SortMetrics
from .sorts import (
    bubble_sort,
    check_keys,
    enhanced_selection_sort,
    enhanced_selection_unchecked,
    insertion_sort,
    selection_sort,
)

# int64 values have at most 19 decimal digits.
MAX_DIGITS = 19

# Dataset shapes that ``datagen.generate`` builds; the CLI lists them.
DISTRIBUTIONS = (
    "uniform",
    "one-per-bucket",
    "single-bucket",
    "sorted-ascending",
    "reverse-sorted",
    "with-negatives",
)

# Covers buckets 0-7 with a realistic multi-bucket spread.
DEFAULT_VALUE_LO = -1_000_000
DEFAULT_VALUE_HI = 1_000_000


def count_digits(x: int) -> int:
    """Return the bucket index for ``x``: 0 if x <= 0, else its digit count."""
    return len(str(x)) if x > 0 else 0


class BucketTable:
    """Elements grouped by digit class, in arrival order.

    ``buckets[b]`` holds the inputs whose bucket index is ``b``; the last
    bucket is the highest index observed.  Two tables are equal when
    their buckets are; a table is unhashable.
    """

    __match_args__ = ("buckets",)

    def __init__(self, buckets: list[list[int]] | None = None) -> None:
        self.buckets = [[]] if buckets is None else buckets

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(buckets={self.buckets!r})"

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.buckets == other.buckets  # type: ignore[attr-defined]

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

    The values are copied and put through :func:`~arcsort.sorts.check_keys`
    before the scatter, so the buckets hold plain ints and a bad key
    raises :class:`TypeError` or :class:`OverflowError` naming the first
    one in input order, as every sort does.  ``values`` is not changed.
    """
    keys = list(values)
    check_keys(keys)
    buckets: list[list[int]] = [[] for _ in range(MAX_DIGITS + 1)]
    k = 0
    for x in keys:
        b = count_digits(x)
        buckets[b].append(x)
        if b > k:
            k = b
    return BucketTable(buckets[: k + 1])


def concatenate(table: BucketTable) -> list[int]:
    """Flatten the table in ascending bucket order."""
    return list(chain.from_iterable(table.buckets))


def arc_sort(data: Sequence[int], metrics: SortMetrics | None = None) -> list[int]:
    """Return the values sorted ascending; the input is left untouched.

    Distributes into digit-class buckets, sorts each bucket holding at
    least two elements with :func:`enhanced_selection_sort` (singleton and
    empty buckets are skipped outright), and concatenates in bucket order.
    Metrics accumulate across the per-bucket sorts, so total comparisons
    equal the sum of c(c-1)/2 over bucket occupancies c.  The keys are
    checked once, by :func:`distribute`.
    """
    table = distribute(data)
    for bucket in table.buckets:
        if len(bucket) > 1:
            enhanced_selection_unchecked(bucket, metrics)
    return concatenate(table)


# name -> the public sort: callable(buffer, metrics) -> sorted list.  The
# four in-place sorts mutate the buffer and return it, so callers pass a
# throwaway copy; arc_sort returns a new list.
ALGORITHMS: dict[str, Callable[[list[int], SortMetrics | None], Sequence[int]]] = {
    "arc": arc_sort,
    "enhanced-selection": enhanced_selection_sort,
    "selection": selection_sort,
    "insertion": insertion_sort,
    "bubble": bubble_sort,
}
