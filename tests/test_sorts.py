"""Unit tests for the four instrumented in-place sorts, and the key rule,
``metrics=None`` and the containers of every sort on every backend.

Expected operation counts were computed with the independent recursive
reference in ``oracles.py`` (and tiny step interpreters for the pinned
baseline variants) before being frozen here.
"""

from __future__ import annotations

import inspect
import re
from fractions import Fraction

import pytest

from arcsort import (
    SortMetrics,
    bubble_sort,
    enhanced_selection_sort,
    insertion_sort,
    selection_sort,
)
from arcsort import sorts
from backends import CONTRACTS, PARAMS, Digits, Index, on

ALL_SORTS = [enhanced_selection_sort, selection_sort, insertion_sort, bubble_sort]


def run(sort, values):
    metrics = SortMetrics()
    return sort(list(values), metrics), metrics


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


@pytest.mark.parametrize("backend, name", PARAMS)
def test_metrics_argument_is_optional(backend, name):
    assert on(backend, name)([5, -3, 5, 0]) == [-3, 0, 5, 5]


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


# Any container of CONTRACTS may come in, not only a list: a deque cannot be
# sliced, and arc_sort takes any iterable.
@pytest.mark.parametrize("backend, name", PARAMS)
def test_sorts_a_deque_as_they_sort_a_list(backend, name):
    sort, contract = on(backend, name), CONTRACTS[name]
    values = [(i * 37) % 23 - 11 for i in range(150)]  # three blocks, with duplicates
    want, want_metrics = run(sort, values)
    for container in contract.containers:
        data = container(values)
        metrics = SortMetrics()
        out = sort(data, metrics)
        assert list(out) == want == sorted(values), container.__name__
        assert metrics == want_metrics
        assert (out is data) == contract.in_place


# Every sort follows distribute's key rule: the same errors, raised
# before the first pass, so a rejected input is left as it was given.
@pytest.mark.parametrize("backend, name", PARAMS)
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
def test_classic_sorts_reject_non_integer_keys(backend, name, values, bad):
    data = list(values)
    with pytest.raises(TypeError, match=re.escape(f"{bad} is not an integer key")):
        on(backend, name)(data, SortMetrics())
    assert data == values


@pytest.mark.parametrize("backend, name", PARAMS)
@pytest.mark.parametrize("value", [2**63, 10**19, -(2**63) - 1, 2**64])
def test_classic_sorts_reject_keys_outside_int64(backend, name, value):
    data = [5, value, -1]  # 2**64 was sorted after -1
    metrics = SortMetrics()
    with pytest.raises(OverflowError, match=f"{value} is outside the signed 64-bit range"):
        on(backend, name)(data, metrics)
    assert data == [5, value, -1]
    assert metrics == SortMetrics()


@pytest.mark.parametrize("backend, name", PARAMS)
def test_classic_sorts_convert_index_keys_to_int(backend, name):
    sort = on(backend, name)
    plain, plain_metrics = run(sort, [30, 12, -1, 5])
    data, metrics = run(sort, [Index(30), Digits.TWELVE, Index(-1), 5])
    assert data == plain == [-1, 5, 12, 30]
    assert all(type(v) is int for v in data)
    assert metrics == plain_metrics


@pytest.mark.parametrize("backend, name", PARAMS)
def test_classic_sorts_index_keys_keep_the_int64_range(backend, name):
    with pytest.raises(OverflowError, match=str(2**63)):
        on(backend, name)([Index(2**63), 1])


@pytest.mark.parametrize("backend, name", PARAMS)
def test_classic_sorts_check_keys_once(monkeypatch, backend, name):
    # the key rule runs once a call on every backend: the per-bucket sorts of
    # arc_sort's pure path must not repeat it
    check_keys = sorts.check_keys
    calls = []

    def counted(data):
        calls.append(list(data))
        check_keys(data)

    monkeypatch.setattr(sorts, "check_keys", counted)
    values = [349, 34, -72, 22, 14, -1]  # two of arc_sort's buckets hold two keys or more
    assert on(backend, name)(list(values)) == sorted(values)
    assert calls == [values]
