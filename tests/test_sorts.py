"""Unit tests for the four instrumented sorts.

Expected operation counts were computed with the independent recursive
reference in ``oracles.py`` (and tiny step interpreters for the pinned
baseline variants) before being frozen here.
"""

from __future__ import annotations

import enum
import inspect
import re
from collections import deque
from fractions import Fraction

import pytest

from arcsort import (
    SortMetrics,
    bubble_sort,
    enhanced_selection_sort,
    insertion_sort,
    selection_sort,
)
from backends import bubble_sort_pure

ALL_SORTS = [enhanced_selection_sort, selection_sort, insertion_sort, bubble_sort]
# bubble_sort runs compiled where a compiler is found, so its pure kernel runs too
BOTH_PATHS = [*ALL_SORTS, bubble_sort_pure]


def run(sort, values):
    data = list(values)
    metrics = SortMetrics()
    sort(data, metrics)
    return data, metrics


def test_metrics_start_at_zero():
    m = SortMetrics()
    assert (m.comparisons, m.swaps, m.writes) == (0, 0, 0)


def test_metrics_accumulate_across_calls():
    m = SortMetrics()
    enhanced_selection_sort([3, 1, 2], m)
    first = m.comparisons
    enhanced_selection_sort([3, 1, 2], m)
    assert m.comparisons == 2 * first


class TestEnhancedSelection:
    def test_bucket_of_three(self):
        data, m = run(enhanced_selection_sort, [34, 22, 14])
        assert data == [14, 22, 34]
        assert m.comparisons == 3
        assert m.swaps == 1

    @pytest.mark.parametrize("values", [[], [5]])
    def test_size_guard(self, values):
        data, m = run(enhanced_selection_sort, values)
        assert data == values
        assert m == SortMetrics()

    def test_already_sorted_never_swaps(self):
        data, m = run(enhanced_selection_sort, [1, 2, 3])
        assert data == [1, 2, 3]
        assert m.comparisons == 3
        assert m.swaps == 0

    def test_tie_rule_swaps_equal_values(self):
        # `>=` promotes the earlier duplicate, so the swap guard fires.
        data, m = run(enhanced_selection_sort, [7, 7])
        assert data == [7, 7]
        assert m.comparisons == 1
        assert m.swaps == 1

    def test_swaps_on_increasing_thousand(self):
        data, m = run(enhanced_selection_sort, list(range(1000)))
        assert data == list(range(1000))
        assert m.swaps == 0
        assert m.comparisons == 1000 * 999 // 2


class TestSelection:
    def test_basic(self):
        data, m = run(selection_sort, [3, 1, 2])
        assert data == [1, 2, 3]
        assert m.comparisons == 3

    def test_empty(self):
        data, m = run(selection_sort, [])
        assert data == []
        assert m == SortMetrics()

    def test_all_equal_still_scans(self):
        data, m = run(selection_sort, [2, 2, 2])
        assert data == [2, 2, 2]
        assert m.comparisons == 3
        assert m.swaps == 0


class TestInsertion:
    def test_sorted_input_is_linear(self):
        _, m = run(insertion_sort, [1, 2, 3])
        assert m.comparisons == 2

    def test_reversed_counts_shifts(self):
        data, m = run(insertion_sort, [3, 2, 1])
        assert data == [1, 2, 3]
        assert m.comparisons == 3
        assert m.writes == 3

    def test_empty(self):
        _, m = run(insertion_sort, [])
        assert m.comparisons == 0


class TestBubble:
    def test_single_swap(self):
        data, m = run(bubble_sort, [2, 1])
        assert data == [1, 2]
        assert m.comparisons == 1
        assert m.swaps == 1

    def test_early_exit_on_sorted(self):
        # One clean pass, then stop.
        data, m = run(bubble_sort, [1, 2, 3])
        assert data == [1, 2, 3]
        assert m.comparisons == 2
        assert m.swaps == 0

    def test_empty_noop(self):
        data, m = run(bubble_sort, [])
        assert data == []
        assert m == SortMetrics()


@pytest.mark.parametrize("sort", ALL_SORTS)
def test_metrics_argument_is_optional(sort):
    data = [5, -3, 5, 0]
    sort(data)
    assert data == [-3, 0, 5, 5]


# The first docstring line of each public sort: the public sort shows its
# kernel's docstring as written.
DOC_FIRST_LINES = {
    "enhanced_selection_sort": "Sort ascending by repeatedly swapping the maximum to the end.",
    "selection_sort": "Classic minimum-selection sort: one swap per pass, no early exit.",
    "insertion_sort": "Insertion sort: a key no smaller than its left neighbour costs one",
    "bubble_sort": "Adjacent-swap passes, stopping after the first pass with no swap.",
}


@pytest.mark.parametrize("sort", ALL_SORTS)
def test_public_sort_keeps_its_surface(sort):
    # help() and signature() must show the public call, not the kernel's
    assert str(inspect.signature(sort)) == (
        "(data: 'MutableSequence[int]', metrics: 'SortMetrics | None' = None)"
        " -> 'MutableSequence[int]'"
    )
    assert str(inspect.signature(sort.kernel)) == (
        "(data: 'MutableSequence[int]', metrics: 'SortMetrics') -> 'None'"
    )
    assert sort.__qualname__ == sort.__name__ == sort.kernel.__name__
    assert sort.__module__ == "arcsort.sorts"
    assert sort.__doc__ == sort.kernel.__doc__
    assert sort.__doc__.splitlines()[0] == DOC_FIRST_LINES[sort.__name__]


@pytest.mark.parametrize("sort", ALL_SORTS)
def test_sorts_in_place_with_negatives_and_duplicates(sort):
    values = [0, -1, 5, -10, 3, 3, 2, -1]
    data, _ = run(sort, values)
    assert data == sorted(values)


# Any mutable sequence may come in, not only a list: a deque cannot be sliced.
@pytest.mark.parametrize("sort", BOTH_PATHS)
def test_sorts_a_deque_as_they_sort_a_list(sort):
    values = [(i * 37) % 23 - 11 for i in range(150)]  # three blocks, with duplicates
    want, want_metrics = run(sort, values)
    data = deque(values)
    metrics = SortMetrics()
    assert sort(data, metrics) is data
    assert list(data) == want
    assert metrics == want_metrics


@pytest.mark.parametrize("sort", ALL_SORTS)
def test_int64_extremes(sort):
    values = [2**63 - 1, -(2**63), 0, 1, -1]
    data, _ = run(sort, values)
    assert data == sorted(values)


# The classic sorts follow distribute's key rule: the same errors, raised
# before the first pass, so a rejected input is left as it was given.
@pytest.mark.parametrize("sort", BOTH_PATHS)
@pytest.mark.parametrize(
    "values, bad",
    [
        ([3, 1.5, True], "1.5"),  # was sorted to [True, 1.5, 3]
        ([True, 5, 3], "True"),
        ([5, False], "False"),
        ([Fraction(1, 2), 7], "Fraction(1, 2)"),
        ([3, "4"], "'4'"),
    ],
)
def test_classic_sorts_reject_non_integer_keys(sort, values, bad):
    data = list(values)
    with pytest.raises(TypeError, match=re.escape(f"{bad} is not an integer key")):
        sort(data, SortMetrics())
    assert data == values


@pytest.mark.parametrize("sort", BOTH_PATHS)
@pytest.mark.parametrize("value", [2**63, 10**19, -(2**63) - 1, 2**64])
def test_classic_sorts_reject_keys_outside_int64(sort, value):
    data = [5, value, -1]  # 2**64 was sorted after -1
    metrics = SortMetrics()
    with pytest.raises(OverflowError, match=f"{value} is outside the signed 64-bit range"):
        sort(data, metrics)
    assert metrics == SortMetrics()


class Digits(enum.IntEnum):
    TWELVE = 12


class Index:
    """An integer-like key that is not an int: it has ``__index__`` only."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


@pytest.mark.parametrize("sort", BOTH_PATHS)
def test_classic_sorts_convert_index_keys_to_int(sort):
    plain, plain_metrics = run(sort, [30, 12, -1, 5])
    data, metrics = run(sort, [Index(30), Digits.TWELVE, Index(-1), 5])
    assert data == plain == [-1, 5, 12, 30]
    assert all(type(v) is int for v in data)
    assert metrics == plain_metrics


@pytest.mark.parametrize("sort", BOTH_PATHS)
def test_classic_sorts_index_keys_keep_the_int64_range(sort):
    with pytest.raises(OverflowError, match=str(2**63)):
        sort([Index(2**63), 1])
