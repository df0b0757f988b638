"""Randomized invariants for the sorts, the bucketing and the generators, and
index-loop parity of every sort on every backend of `backends.PARAMS`."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from arcsort import (
    DatasetSpec,
    SortMetrics,
    arc_sort,
    concatenate,
    count_digits,
    distribute,
    enhanced_selection_sort,
    generate,
    insertion_sort,
    selection_sort,
)
from arcsort.bench import ALGORITHMS
from arcsort.sorts import INT64_MAX, INT64_MIN, _BLOCK
from backends import CONTRACTS, PARAMS, assert_is_the_index_loop, on, pure_path
from oracles import (
    bubble_count_laws,
    pair_comparisons,
    reference_arc,
    reference_bubble,
    reference_digit_class,
    reference_enhanced_selection,
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


@st.composite
def block_lists(draw):
    """Ties or wide values, of any length up to three blocks of the selection
    sorts' working list and one key more, so most draws cross a block boundary."""
    bound = draw(st.sampled_from([2, 10**9]))
    n = draw(st.integers(min_value=0, max_value=3 * _BLOCK + 1))
    return draw(st.lists(st.integers(min_value=-bound, max_value=bound), min_size=n, max_size=n))


# one key short of a block, one block, one key over, two blocks, and one key over
BLOCK_EXAMPLES = [
    [(i * 37) % 5 - 2 for i in range(_BLOCK - 1)],
    list(range(_BLOCK, 0, -1)),
    # the extreme equals the candidate, a block away from it: no swap for
    # selection, a swap of equal keys for enhanced
    [0] + [1] * (_BLOCK - 1) + [0],
    [i % 3 - 1 for i in range(2 * _BLOCK)],
    [(i * 7919) % 1_000_003 - 500_000 for i in range(2 * _BLOCK + 1)],
]


def with_block_examples(test):
    for values in BLOCK_EXAMPLES:
        test = example(values=values)(test)
    return test


@pytest.mark.parametrize("backend, name", PARAMS)
@settings(deadline=None, max_examples=120)
@given(values=st.one_of(full_range_lists, dup_lists))
def test_sorts_match_oracle_and_preserve_multiset(backend, name, values):
    metrics = SortMetrics()
    data = on(backend, name)(list(values), metrics)
    assert data == sorted(values)
    assert Counter(data) == Counter(values)
    assert metrics.comparisons >= 0
    assert metrics.swaps >= 0
    assert metrics.writes >= 0


@pytest.mark.parametrize("backend, name", PARAMS)
@settings(deadline=None, max_examples=60)
@given(values=dup_lists)
def test_sorts_are_deterministic(backend, name, values):
    run = on(backend, name)
    ma, mb = SortMetrics(), SortMetrics()
    assert run(list(values), ma) == run(list(values), mb)
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


# the sorts whose kernels keep their unsorted part in blocks
SELECTION_FAMILY = ["enhanced-selection", "selection", "arc"]


@pytest.mark.parametrize("name", SELECTION_FAMILY)
@with_block_examples
@settings(deadline=None, max_examples=150)
@given(values=st.one_of(tie_lists, wide_lists, block_lists()))
def test_selection_sorts_equal_reference(name, values):
    expected_sorted, expected_metrics = CONTRACTS[name].oracle(values)
    metrics = SortMetrics()
    assert ALGORITHMS[name](list(values), metrics) == expected_sorted
    assert metrics == expected_metrics


@pytest.mark.parametrize("name", SELECTION_FAMILY)
@with_block_examples
@settings(deadline=None, max_examples=60)
@given(values=st.one_of(tie_lists, wide_lists, block_lists()))
def test_selection_sorts_accumulate_and_accept_no_metrics(name, values):
    run = ALGORITHMS[name]
    expected_sorted, expected = CONTRACTS[name].oracle(values)
    assert run(list(values), None) == expected_sorted
    metrics = SortMetrics(comparisons=7, swaps=5, writes=3)
    assert run(list(values), metrics) == expected_sorted
    assert metrics == SortMetrics(7 + expected.comparisons, 5 + expected.swaps, 3)


# ties and wide values, plus monotone runs: one pass or none to do, and every
# pass a full shift or a swap per comparison
index_loop_inputs = st.one_of(tie_lists, wide_lists).flatmap(
    lambda v: st.sampled_from([v, sorted(v), sorted(v, reverse=True)])
)


@settings(deadline=None, max_examples=300)
@given(values=index_loop_inputs)
def test_insertion_equals_index_loop_reference(values):
    expected_sorted, expected_metrics = CONTRACTS["insertion"].oracle(values)
    metrics = SortMetrics()
    assert ALGORITHMS["insertion"](list(values), metrics) == expected_sorted
    assert metrics == expected_metrics


class Snapshots(list):
    """A list that checks itself against the next state of ``wanted`` at
    the start and after every store, deletion and insertion: ``missed``
    ends empty only if every wanted state occurs, in order.  A sorted
    input's only wanted state is the input itself, which the start meets
    with no store."""

    def __init__(self, values, wanted):
        super().__init__(values)
        self.missed = wanted[::-1]
        self._check()

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self._check()

    def __delitem__(self, index):
        super().__delitem__(index)
        self._check()

    def insert(self, index, value):
        super().insert(index, value)
        self._check()

    def _check(self):
        if self.missed and self == self.missed[-1]:
            self.missed.pop()


def assert_bubble_is_the_index_loop(values) -> None:
    """The pure kernel, pass by pass: its compiled twin stores only the final
    state.  Its counts also follow the pass and swap laws of the input."""
    pass_ends = []
    expected_sorted, expected_cmp, expected_swaps = reference_bubble(values, pass_ends)
    data = Snapshots(values, pass_ends)
    metrics = SortMetrics()
    with pure_path():
        assert ALGORITHMS["bubble"](data, metrics) is data
    assert data == expected_sorted
    assert metrics == SortMetrics(comparisons=expected_cmp, swaps=expected_swaps)
    assert (expected_cmp, expected_swaps) == bubble_count_laws(values)
    assert data.missed == []


def small_examples(test):
    """``test`` with short lists that bubble's pass logic turns on: equal
    records in [1, 1, 0], and a last pass that swaps nothing in [2, 1, 3]."""
    for values in ([], [1], [2, 1], [1, 1, 0], [2, 1, 3]):
        test = example(values=values)(test)
    return test


@small_examples
@settings(deadline=None, max_examples=300)
@given(values=st.one_of(index_loop_inputs, dup_lists))
def test_bubble_equals_index_loop_reference(values):
    assert_bubble_is_the_index_loop(values)


def oracle_mix_inputs():
    """Criterion 2's two array kinds at its sizes, which hypothesis seldom
    draws, with both monotone runs and the turtle, whose keys but one are records."""
    rng = random.Random(16)
    for n in (200, 512):
        wide = [rng.randint(-(10**9), 10**9) for _ in range(n)]
        yield pytest.param(wide, id=f"uniform-{n}")
        yield pytest.param([rng.randint(-50, 50) for _ in range(n)], id=f"small-range-{n}")
        yield pytest.param(sorted(wide), id=f"sorted-{n}")
        yield pytest.param(sorted(wide, reverse=True), id=f"reverse-sorted-{n}")
        yield pytest.param([*range(1, n), 0], id=f"turtle-{n}")


@pytest.mark.parametrize("values", oracle_mix_inputs())
def test_bubble_is_the_index_loop_at_oracle_mix_sizes(values):
    assert_bubble_is_the_index_loop(values)


# both sides of every digit-class boundary, 0 | 1 to 10**18 - 1 | 10**18, the
# int64 ends and -1
DIGIT_EDGES = [k for d in range(19) for k in (10**d - 1, 10**d)] + [INT64_MAX, INT64_MIN, -1]
edge_lists = st.lists(
    st.one_of(st.sampled_from(DIGIT_EDGES), st.integers(min_value=-3, max_value=3), int64s),
    max_size=64,
)


@pytest.mark.parametrize("backend, name", PARAMS)
@small_examples
@example(values=DIGIT_EDGES)
@example(values=DIGIT_EDGES[::-1] * 2)
@settings(deadline=None, max_examples=150)
@given(values=st.one_of(edge_lists, index_loop_inputs, dup_lists))
def test_every_backend_equals_the_index_loop(backend, name, values):
    assert_is_the_index_loop(on(backend, name), name, values)


@pytest.mark.parametrize("backend, name", PARAMS)
@pytest.mark.parametrize("values", oracle_mix_inputs())
def test_every_backend_equals_the_index_loop_at_oracle_mix_sizes(backend, name, values):
    assert_is_the_index_loop(on(backend, name), name, values)


def block_boundary_inputs():
    """Single-bucket inputs around the C scan's blocks of ``_BLOCK`` keys:
    one key short of a block, one block and one key over, as n = 63, 64 and
    65 are to its first pass, and two blocks (128) and three keys over (131).
    The maximum sits at each offset modulo 4 from a block's start, so in
    every lane of a scan with two or four running maxima: once, at the end
    of the first block, and then also at the start of the first two blocks,
    so the scan meets it across a block boundary, and in the candidate's
    slot ``a[last]``."""
    rng = random.Random(31)
    for n in (63, 64, 65, 128, 131):
        for lane in range(4):
            once = [rng.randint(100, 998) for _ in range(n)]
            ties = list(once)
            end = _BLOCK - 4 + lane
            once[end if end < n - 1 else lane] = 999
            for i in (lane, _BLOCK - 4 + lane, _BLOCK + lane, n - 1):
                if i < n:
                    ties[i] = 999
            yield pytest.param(once, id=f"{n}-lane{lane}-once")
            yield pytest.param(ties, id=f"{n}-lane{lane}-ties")


@pytest.mark.parametrize("backend, name", PARAMS)
@pytest.mark.parametrize("values", block_boundary_inputs())
def test_every_backend_equals_the_index_loop_at_block_boundaries(backend, name, values):
    assert_is_the_index_loop(on(backend, name), name, values)


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


# keys the key rule refuses: outside int64 on either side, a bool, a non-integer
bad_keys = st.sampled_from([2**63, 10**19, -(2**63) - 1, -(10**20), True, 1.5, "4"])


@st.composite
def lists_with_two_bad_keys(draw):
    values = draw(st.lists(int64s, max_size=30))
    for bad in draw(st.lists(bad_keys, min_size=2, max_size=2)):
        values.insert(draw(st.integers(min_value=0, max_value=len(values))), bad)
    return values


def rejection(fn, values) -> tuple[type, str]:
    with pytest.raises((TypeError, OverflowError)) as err:
        fn(list(values))
    return type(err.value), str(err.value)


@example(values=[2**63, 10**19])
@example(values=[-(2**63) - 1, 5, 10**19])
@example(values=[2**63, True])
@settings(deadline=None, max_examples=100)
@given(values=lists_with_two_bad_keys())
def test_keys_have_one_order_of_rejection(values):
    # every entry point names the first bad key in input order, the same way
    first = next(x for x in values if type(x) is not int or not -(2**63) <= x < 2**63)
    seen = {name: rejection(run, values) for name, run in ALGORITHMS.items()}
    seen.update((f"{name} pure", rejection(on("pure", name), values)) for name in ALGORITHMS)
    seen["distribute"] = rejection(distribute, values)
    assert len(set(seen.values())) == 1, seen
    assert seen["distribute"][1].startswith(f"{first!r} "), seen


@settings(deadline=None, max_examples=120)
@given(values=full_range_lists)
def test_count_digits_matches_decade_bounds(values):
    for x in values:
        assert count_digits(x) == reference_digit_class(x)


@settings(deadline=None, max_examples=100)
@given(values=full_range_lists)
def test_distribute_invariants(values):
    table = distribute(values)
    assert len(table.buckets) == 1 + max(map(count_digits, values), default=0)
    assert sum(table.occupancy) == len(values)
    assert all(x <= 0 for x in table.buckets[0])
    for b, bucket in enumerate(table.buckets):
        if b > 0:
            assert all(x > 0 and count_digits(x) == b for x in bucket)
        # arrival order: bucket contents equal a stable filter of the input
        assert bucket == [x for x in values if count_digits(x) == b]
    assert concatenate(table) == [x for b in range(len(table.buckets))
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
