"""Instrumented in-place ascending sorts over signed 64-bit integers.

All four sorts mutate the sequence they are given, report their work
through a :class:`~arcsort.metrics.SortMetrics` accumulator, and are
deterministic: the same input always yields the same output and the same
counts.  None of them is stable, which is unobservable on plain integers.

Each sort has exactly one definition, the plain-Python loop below.  The
two selection sorts scan each pass by value, with no per-element
subscript, and search for the swap slot only when a swap is due; they
pass through the states of the index loops in ``tests/oracles.py``, so
their outputs and counts are the same.

Every sort first applies the key rule of :func:`check_keys`, once per
call: a non-int key with ``__index__`` is replaced by its int, and a
``bool``, any other key or a key outside int64 raises before the first
pass.  :func:`~arcsort.buckets.distribute` applies the same rule.
"""

from __future__ import annotations

from collections.abc import MutableSequence
from operator import index, indexOf

from .metrics import SortMetrics

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def int_key(x) -> int:
    """Return ``x`` as an int key, or raise :class:`TypeError` naming it."""
    # bool has __index__, but len(str(True)) would file it as a 4-digit key
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise TypeError(f"{x!r} is not an integer key")
    return index(x)


def out_of_range(x: int) -> OverflowError:
    return OverflowError(f"{x} is outside the signed 64-bit range")


def check_keys(data: MutableSequence) -> None:
    """Make every key of ``data`` a plain int in the int64 range, in place.

    Raises :class:`TypeError` or :class:`OverflowError` naming the first
    key that cannot be one.  A plain int costs one type test.
    """
    for i, x in enumerate(data):
        if type(x) is not int:
            data[i] = x = int_key(x)
        if not INT64_MIN <= x <= INT64_MAX:
            raise out_of_range(x)


def enhanced_selection_sort(data: MutableSequence[int], metrics: SortMetrics | None = None) -> None:
    """Sort ascending by repeatedly swapping the maximum to the end.

    Each pass pops the last value of the unsorted part as the candidate
    and scans the rest by value, promoting on `>=` so the LAST occurrence
    of the maximum wins.  Only if a value was promoted is its slot found,
    by a C-level search from the tail, and the candidate written there:
    the slot an index scan picks, so every state and count is the index
    loop's.  Exactly n(n-1)/2 comparisons and at most n-1 swaps; on
    duplicates the `>=` rule can swap a pair of equal values, which is
    kept so swap counts stay reproducible.
    """
    check_keys(data)
    enhanced_selection_unchecked(data, metrics)


def enhanced_selection_unchecked(data: MutableSequence[int], metrics: SortMetrics | None = None) -> None:
    """:func:`enhanced_selection_sort` on keys that have passed the key rule."""
    if metrics is None:
        metrics = SortMetrics()
    swaps = 0
    w = list(data)
    for last in range(len(w) - 1, 0, -1):
        top = w.pop()
        best_val = top
        promoted = False
        for v in w:
            if v >= best_val:
                best_val = v
                promoted = True
        if promoted:
            w[len(w) - 1 - indexOf(reversed(w), best_val)] = top
            swaps += 1
        data[last] = best_val
    if w:
        data[0] = w[0]
    metrics.comparisons += len(data) * (len(data) - 1) // 2
    metrics.swaps += swaps


def selection_sort(data: MutableSequence[int], metrics: SortMetrics | None = None) -> None:
    """Classic minimum-selection sort: one swap per pass, no early exit.

    The unsorted part is kept reversed, so pass i pops ``data[i]`` from
    the tail as the candidate and scans the rest by value, promoting on a
    strict `<`.  Only if a value was promoted is its slot found, by a
    C-level search from the tail: the minimum's FIRST occurrence in
    ``data``, the slot an index scan picks, so every count is the index
    loop's.  Exactly n(n-1)/2 comparisons and at most n-1 swaps.
    """
    check_keys(data)
    if metrics is None:
        metrics = SortMetrics()
    swaps = 0
    w = list(reversed(data))
    for i in range(len(w) - 1):
        top = w.pop()
        best_val = top
        promoted = False
        for v in w:
            if v < best_val:
                best_val = v
                promoted = True
        if promoted:
            w[len(w) - 1 - indexOf(reversed(w), best_val)] = top
            swaps += 1
        data[i] = best_val
    if w:
        data[-1] = w[0]
    metrics.comparisons += len(data) * (len(data) - 1) // 2
    metrics.swaps += swaps


def insertion_sort(data: MutableSequence[int], metrics: SortMetrics | None = None) -> None:
    """Shift-based insertion sort, scanning left while strictly greater.

    Comparisons count every executed ``data[j] > key`` test; writes count
    the shift stores only, not the final key placement.
    """
    check_keys(data)
    if metrics is None:
        metrics = SortMetrics()
    comparisons = 0
    writes = 0
    for i in range(1, len(data)):
        key = data[i]
        j = i - 1
        while j >= 0 and data[j] > key:
            data[j + 1] = data[j]
            writes += 1
            comparisons += 1
            j -= 1
        if j >= 0:
            comparisons += 1  # the failed data[j] > key test that ended the scan
        data[j + 1] = key
    metrics.comparisons += comparisons
    metrics.writes += writes


def bubble_sort(data: MutableSequence[int], metrics: SortMetrics | None = None) -> None:
    """Adjacent-swap passes, stopping after the first pass with no swap."""
    check_keys(data)
    if metrics is None:
        metrics = SortMetrics()
    n = len(data)
    comparisons = 0
    swaps = 0
    for i in range(n - 1):
        swapped = False
        limit = n - 1 - i
        for j in range(limit):
            if data[j] > data[j + 1]:
                data[j], data[j + 1] = data[j + 1], data[j]
                swaps += 1
                swapped = True
        comparisons += limit
        if not swapped:
            break
    metrics.comparisons += comparisons
    metrics.swaps += swaps
