"""Digit classification, distribution, and the bucketed sort."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from arcsort import (
    ALGORITHMS,
    BucketTable,
    SortMetrics,
    arc_sort,
    bubble_sort,
    concatenate,
    count_digits,
    distribute,
    enhanced_selection_sort,
    insertion_sort,
    selection_sort,
)
from backends import Digits, Index

GOLDEN_INPUT = [349, 34, -72, 22, 14, -1]
GOLDEN_OUTPUT = [-72, -1, 14, 22, 34, 349]


@pytest.mark.parametrize(
    "value,expected",
    [
        (349, 3),
        (-72, 0),
        (0, 0),  # zero is non-positive by convention, not a 1-digit key
        (9, 1),
        (10, 2),
        (99, 2),
        (100, 3),
        (10**18, 19),
        (2**63 - 1, 19),
        (-(2**63), 0),
    ],
)
def test_count_digits(value, expected):
    assert count_digits(value) == expected


def test_distribute_golden():
    table = distribute(GOLDEN_INPUT)
    assert table.buckets == [[-72, -1], [], [34, 22, 14], [349]]
    assert table.occupancy == [2, 0, 3, 1]


def test_distribute_empty():
    table = distribute([])
    assert table.buckets == [[]]
    assert table.occupancy == [0]


def test_distribute_single_class_keeps_arrival_order():
    table = distribute([5, 5, 5])
    assert table.buckets == [[], [5, 5, 5]]


def test_concatenate_golden_table():
    table = BucketTable([[-72, -1], [], [14, 22, 34], [349]])
    assert concatenate(table) == GOLDEN_OUTPUT


def test_concatenate_empty():
    assert concatenate(BucketTable()) == []


def test_concatenate_single_bucket():
    assert concatenate(BucketTable([[], [], [], [100, 200]])) == [100, 200]


def test_arc_sort_golden():
    metrics = SortMetrics()
    assert arc_sort(GOLDEN_INPUT, metrics) == GOLDEN_OUTPUT
    # one comparison in bucket 0, three in bucket 2 (frozen from the
    # recursive reference in oracles.py)
    assert metrics.comparisons == 4
    assert metrics.swaps == 1


def test_arc_sort_leaves_input_alone():
    data = list(GOLDEN_INPUT)
    arc_sort(data)
    assert data == GOLDEN_INPUT


def test_arc_sort_one_element_per_bucket_is_comparison_free():
    metrics = SortMetrics()
    assert arc_sort([5, 50, 500, 5000], metrics) == [5, 50, 500, 5000]
    assert metrics.comparisons == 0
    assert metrics.swaps == 0


def test_arc_sort_single_bucket_collapses_to_full_scan():
    values = [10000 + (i * 7919) % 90000 for i in range(1000)]
    metrics = SortMetrics()
    out = arc_sort(values, metrics)
    assert out == sorted(values)
    assert metrics.comparisons == 1000 * 999 // 2


def test_arc_sort_empty():
    assert arc_sort([]) == []


def test_arc_sort_metrics_optional():
    assert arc_sort([3, 1, 2]) == [1, 2, 3]


@pytest.mark.parametrize("value", [2**63, 10**19, 10**40, -(2**63) - 1, -(10**40)])
def test_distribute_rejects_keys_outside_int64(value):
    with pytest.raises(OverflowError, match=str(value)):
        distribute([5, value, -3])


def test_distribute_accepts_int64_bounds():
    table = distribute([2**63 - 1, -(2**63)])
    assert table.buckets[0] == [-(2**63)]
    assert table.buckets[19] == [2**63 - 1]


@pytest.mark.parametrize(
    "values, bad",
    [
        ([True, 5, 3], "True"),  # len(str(True)) is 4: sorted after 5
        ([5, False], "False"),
        ([1.5, 12], "1.5"),
        ([Fraction(1, 2), 7], "Fraction(1, 2)"),
        ([3, "4"], "'4'"),
    ],
)
def test_arc_sort_rejects_non_integer_keys(values, bad):
    with pytest.raises(TypeError, match=re.escape(bad)):
        arc_sort(values)
    with pytest.raises(TypeError, match=re.escape(bad)):
        distribute(values)


def test_distribute_converts_index_keys_to_int():
    table = distribute([Digits.TWELVE, Index(-4), Index(345), 7])
    assert table.buckets == [[-4], [7], [12], [345]]
    assert all(type(v) is int for bucket in table.buckets for v in bucket)


IN_PLACE = {
    "enhanced-selection": enhanced_selection_sort,
    "selection": selection_sort,
    "insertion": insertion_sort,
    "bubble": bubble_sort,
}


def test_algorithms_are_the_public_sorts():
    assert ALGORITHMS.keys() == {"arc", *IN_PLACE}
    assert ALGORITHMS["arc"] is arc_sort
    for name, sort in IN_PLACE.items():
        assert ALGORITHMS[name] is sort
        data = list(GOLDEN_INPUT)
        assert sort(data) is data, name
        assert data == GOLDEN_OUTPUT


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: SortMetrics(3, 1, 2), SortMetrics(3, 1, 0)),
        (lambda: BucketTable([[0], [5, 3]]), BucketTable([[0], [3, 5]])),
    ],
    ids=["SortMetrics", "BucketTable"],
)
def test_records_compare_by_value_and_are_unhashable(make, other):
    assert make() == make()
    assert make() != other
    with pytest.raises(TypeError, match="unhashable"):
        hash(make())
