"""The metrics record, the public surface of the in-place sorts, and the
key rule, ``metrics=None`` and the containers of every sort on every backend.

The outputs and counts of fixed examples are ``test_frozen_counts.py``'s
``EXAMPLES``.
"""

from __future__ import annotations

import inspect
import re
from fractions import Fraction

import pytest

from arcsort import (
    SortMetrics,
    bubble_sort,
    distribute,
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


@pytest.mark.parametrize("backend, name", PARAMS)
def test_metrics_argument_is_optional(backend, name):
    assert on(backend, name)([5, -3, 5, 0]) == [-3, 0, 5, 5]


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


# str() of a key past the int-to-str digit limit raises ValueError, so the key
# rule names such a key by its size
@pytest.mark.parametrize(
    "backend, name", [*PARAMS, pytest.param("pure", "distribute", id="distribute")]
)
@pytest.mark.parametrize(
    "key, shown",
    [
        pytest.param(10**5000, "a 16610-bit key", id="10**5000"),
        pytest.param(-(10**5000), "a 16610-bit negative key", id="-10**5000"),
        pytest.param(Index(10**5000), "a 16610-bit key", id="Index(10**5000)"),
    ],
)
def test_keys_past_the_digit_limit_are_named_by_their_size(backend, name, key, shown):
    sort = distribute if name == "distribute" else on(backend, name)
    with pytest.raises(OverflowError, match=f"^{shown} is outside the signed 64-bit range$"):
        sort([3, key, 1])


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
