"""Randomized invariants for the sorts, the bucketing, and the generators."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from arcsort import (
    DatasetSpec,
    SortMetrics,
    arc_sort,
    bubble_sort,
    concatenate,
    count_digits,
    distribute,
    enhanced_selection_sort,
    generate,
    insertion_sort,
    selection_sort,
)
from arcsort.bench import ALGORITHMS
from oracles import (
    pair_comparisons,
    reference_arc,
    reference_digit_class,
    reference_enhanced_selection,
    reference_selection,
)

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)
small_ints = st.integers(min_value=-10_000, max_value=10_000)

# full-range lists hit all digit classes and the extremes
full_range_lists = st.lists(int64s, max_size=128)
# small-range lists force duplicates
dup_lists = st.lists(st.integers(min_value=-30, max_value=30), max_size=200)
# reference parity: mostly ties, and wide values spanning many digit classes
tie_lists = st.lists(st.integers(min_value=-2, max_value=2), max_size=64)
wide_lists = st.lists(st.integers(min_value=-(10**9), max_value=10**9), max_size=64)

ALL_SORTS = [enhanced_selection_sort, selection_sort, insertion_sort, bubble_sort]


@pytest.mark.parametrize("sort", ALL_SORTS)
@settings(deadline=None, max_examples=120)
@given(values=st.one_of(full_range_lists, dup_lists))
def test_sorts_match_oracle_and_preserve_multiset(sort, values):
    data = list(values)
    metrics = SortMetrics()
    sort(data, metrics)
    assert data == sorted(values)
    assert Counter(data) == Counter(values)
    assert metrics.comparisons >= 0
    assert metrics.swaps >= 0
    assert metrics.writes >= 0


@pytest.mark.parametrize("sort", ALL_SORTS)
@settings(deadline=None, max_examples=60)
@given(values=dup_lists)
def test_sorts_are_deterministic(sort, values):
    a, b = list(values), list(values)
    ma, mb = SortMetrics(), SortMetrics()
    sort(a, ma)
    sort(b, mb)
    assert a == b
    assert ma == mb


@pytest.mark.parametrize("sort", [enhanced_selection_sort, selection_sort])
@settings(deadline=None, max_examples=100)
@given(values=st.one_of(full_range_lists, dup_lists))
def test_selection_family_comparison_law(sort, values):
    metrics = SortMetrics()
    sort(list(values), metrics)
    assert metrics.comparisons == pair_comparisons(len(values))
    assert metrics.swaps <= max(len(values) - 1, 0)


@settings(deadline=None, max_examples=60)
@given(values=st.lists(small_ints, max_size=120, unique=True))
def test_enhanced_selection_never_swaps_sorted_input(values):
    data = sorted(values)
    metrics = SortMetrics()
    enhanced_selection_sort(data, metrics)
    assert metrics.swaps == 0


@settings(deadline=None, max_examples=60)
@given(values=st.lists(small_ints, max_size=120, unique=True))
def test_insertion_is_linear_on_sorted_input(values):
    data = sorted(values)
    metrics = SortMetrics()
    insertion_sort(data, metrics)
    assert metrics.comparisons == max(len(data) - 1, 0)


@settings(deadline=None, max_examples=100)
@given(values=st.lists(st.integers(min_value=-200, max_value=200), max_size=80))
def test_enhanced_selection_counts_match_recursive_reference(values):
    expected_sorted, expected_cmp, expected_swaps = reference_enhanced_selection(values)
    data = list(values)
    metrics = SortMetrics()
    enhanced_selection_sort(data, metrics)
    assert data == expected_sorted
    assert metrics.comparisons == expected_cmp
    assert metrics.swaps == expected_swaps


# bench.ALGORITHMS name -> reference returning (sorted, comparisons, swaps)
REFERENCES = {
    "enhanced-selection": reference_enhanced_selection,
    "selection": reference_selection,
    "arc": reference_arc,
}


@pytest.mark.parametrize("name", list(REFERENCES))
@settings(deadline=None, max_examples=150)
@given(values=st.one_of(tie_lists, wide_lists))
def test_selection_sorts_equal_reference(name, values):
    run = ALGORITHMS[name]
    expected_sorted, expected_cmp, expected_swaps = REFERENCES[name](values)
    metrics = SortMetrics()
    assert run(list(values), metrics) == expected_sorted
    assert metrics == SortMetrics(comparisons=expected_cmp, swaps=expected_swaps)


@pytest.mark.parametrize("name", list(REFERENCES))
@settings(deadline=None, max_examples=60)
@given(values=st.one_of(tie_lists, wide_lists))
def test_selection_sorts_accumulate_and_accept_no_metrics(name, values):
    run = ALGORITHMS[name]
    expected_sorted, expected_cmp, expected_swaps = REFERENCES[name](values)
    assert run(list(values), None) == expected_sorted
    metrics = SortMetrics(comparisons=7, swaps=5, writes=3)
    assert run(list(values), metrics) == expected_sorted
    assert metrics == SortMetrics(
        comparisons=7 + expected_cmp, swaps=5 + expected_swaps, writes=3
    )


@settings(deadline=None, max_examples=100)
@given(values=st.one_of(full_range_lists, dup_lists))
def test_arc_matches_oracle(values):
    assert arc_sort(values) == sorted(values)


@settings(deadline=None, max_examples=100)
@given(values=st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=80))
def test_arc_counts_match_reference(values):
    expected_sorted, expected_cmp, expected_swaps = reference_arc(values)
    metrics = SortMetrics()
    assert arc_sort(values, metrics) == expected_sorted
    assert metrics.comparisons == expected_cmp
    assert metrics.swaps == expected_swaps


@settings(deadline=None, max_examples=120)
@given(values=full_range_lists)
def test_count_digits_matches_decade_bounds(values):
    for x in values:
        assert count_digits(x) == reference_digit_class(x)


@settings(deadline=None, max_examples=100)
@given(values=full_range_lists)
def test_distribute_invariants(values):
    table = distribute(values)
    assert len(table.buckets) == table.k + 1
    assert table.total == len(values)
    assert all(x <= 0 for x in table.buckets[0])
    for b, bucket in enumerate(table.buckets):
        if b > 0:
            assert all(x > 0 and count_digits(x) == b for x in bucket)
        # arrival order: bucket contents equal a stable filter of the input
        assert bucket == [x for x in values if count_digits(x) == b]
    assert concatenate(table) == [x for b in range(table.k + 1)
                                  for x in values if count_digits(x) == b]


@settings(deadline=None, max_examples=100)
@given(values=full_range_lists)
def test_bucket_ordering_theorem(values):
    # every element of a lower non-empty bucket is below every element
    # of any higher one
    table = distribute(values)
    occupied = [b for b in table.buckets if b]
    for lower, upper in zip(occupied, occupied[1:]):
        assert max(lower) < min(upper)


@settings(deadline=None, max_examples=100)
@given(values=full_range_lists)
def test_arc_comparison_decomposition(values):
    metrics = SortMetrics()
    arc_sort(values, metrics)
    expected = sum(pair_comparisons(c) for c in distribute(values).occupancy)
    assert metrics.comparisons == expected


@settings(deadline=None, max_examples=60)
@given(values=st.lists(int64s, max_size=19, unique_by=lambda x: count_digits(x)))
def test_singleton_buckets_cost_nothing(values):
    metrics = SortMetrics()
    arc_sort(values, metrics)
    assert metrics == SortMetrics()


@settings(deadline=None, max_examples=40)
@given(
    dist=st.sampled_from(["uniform", "with-negatives"]),
    n=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_generate_is_pure_function_of_spec(dist, n, seed):
    spec = DatasetSpec(distribution=dist, n=n, seed=seed)
    first = generate(spec)
    assert generate(spec) == first
    assert len(first) == n
    assert all(spec.value_lo <= v <= spec.value_hi for v in first)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=0, max_value=500),
    seed=st.integers(min_value=0, max_value=2**32),
    digit_class=st.integers(min_value=1, max_value=19),
)
def test_single_bucket_regime_conformance(n, seed, digit_class):
    spec = DatasetSpec(distribution="single-bucket", n=n, seed=seed, digit_class=digit_class)
    values = generate(spec)
    assert len(values) == n
    assert all(count_digits(v) == digit_class for v in values)
