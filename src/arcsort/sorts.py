"""Instrumented in-place ascending sorts over signed 64-bit integers.

All four sorts mutate the sequence they are given, report their work
through a :class:`~arcsort.metrics.SortMetrics` accumulator, and are
deterministic: the same input always yields the same output and the same
counts.  None of them is stable, which is unobservable on plain integers.

The pure-Python loops below are the reference implementations.  The two
selection sorts scan each pass by value, with no per-element subscript,
and search for the swap slot only when a swap is due; they pass through
the states of the index loops in ``tests/oracles.py``, so their outputs
and counts are the same.  When numba is importable, :func:`_compiled`
replaces each of them (and ``buckets.arc_sort``) with a wrapper around
its ``_kernels`` twin, once, at import; ``ARCSORT_PURE=1`` keeps the pure
functions.
"""

from __future__ import annotations

import functools
import os
from operator import indexOf
from typing import MutableSequence

from . import _kernels
from .metrics import SortMetrics

USE_COMPILED = _kernels.AVAILABLE and os.environ.get("ARCSORT_PURE") != "1"


def _compiled(kernel: str, counter: str):
    """Decorator: run the pure sort's twin ``_kernels.<kernel>`` via :func:`_wrap`.

    Decided once, at import; with the compiled path off the pure function
    itself comes back.  The kernel's second count adds to ``counter``.
    """
    if not USE_COMPILED:
        return lambda pure: pure
    return lambda pure: _wrap(pure, getattr(_kernels, kernel), counter)


def _wrap(pure, kernel, counter: str):
    """Call ``kernel`` on an int64 copy of ``data`` in place of ``pure``.

    ``(comparisons, count)`` means the kernel sorted the copy, which is
    written back; ``(out, comparisons, count)`` means ``out`` is the result.
    """
    import numpy as np  # runs only on the compiled path, where _kernels loaded it

    @functools.wraps(pure)
    def run(data, metrics: SortMetrics | None = None):
        arr = np.array(data, dtype=np.int64)
        *out, comparisons, count = kernel(arr)
        if metrics is not None:
            metrics.comparisons += int(comparisons)
            setattr(metrics, counter, getattr(metrics, counter) + int(count))
        if out:
            return out[0].tolist()
        data[:] = arr.tolist()

    return run


@_compiled("enhanced_selection", "swaps")
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


@_compiled("selection", "swaps")
def selection_sort(data: MutableSequence[int], metrics: SortMetrics | None = None) -> None:
    """Classic minimum-selection sort: one swap per pass, no early exit.

    The unsorted part is kept reversed, so pass i pops ``data[i]`` from
    the tail as the candidate and scans the rest by value, promoting on a
    strict `<`.  Only if a value was promoted is its slot found, by a
    C-level search from the tail: the minimum's FIRST occurrence in
    ``data``, the slot an index scan picks, so every count is the index
    loop's.  Exactly n(n-1)/2 comparisons and at most n-1 swaps.
    """
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


@_compiled("insertion", "writes")
def insertion_sort(data: MutableSequence[int], metrics: SortMetrics | None = None) -> None:
    """Shift-based insertion sort, scanning left while strictly greater.

    Comparisons count every executed ``data[j] > key`` test; writes count
    the shift stores only, not the final key placement.
    """
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


@_compiled("bubble", "swaps")
def bubble_sort(data: MutableSequence[int], metrics: SortMetrics | None = None) -> None:
    """Adjacent-swap passes, stopping after the first pass with no swap."""
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
