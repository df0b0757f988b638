"""Dataset generator regimes, determinism, and rejection paths."""

from __future__ import annotations

import pytest

from arcsort import DatasetError, DatasetSpec, count_digits, generate
from arcsort.sorts import INT64_MAX, INT64_MIN

# Value ranges that break the empty-range and the int64 rule.
BAD_RANGES = pytest.mark.parametrize(
    "lo, hi, message",
    [(5, 4, r"empty value range \[5, 4\]"), (INT64_MIN - 1, INT64_MAX, "64-bit")],
    ids=["empty", "beyond-int64"],
)


def spec(**kw):
    base = dict(distribution="uniform", n=10, seed=7)
    base.update(kw)
    return DatasetSpec(**base)


def test_one_per_bucket_hits_each_digit_class_once():
    values = generate(spec(distribution="one-per-bucket", n=4, seed=1))
    assert sorted(count_digits(v) for v in values) == [1, 2, 3, 4]


def test_one_per_bucket_full_width():
    values = generate(spec(distribution="one-per-bucket", n=19, seed=3))
    assert sorted(count_digits(v) for v in values) == list(range(1, 20))


def test_one_per_bucket_rejects_more_than_19():
    with pytest.raises(DatasetError):
        generate(spec(distribution="one-per-bucket", n=20))


def test_single_bucket_range():
    values = generate(spec(distribution="single-bucket", n=1000, digit_class=5))
    assert len(values) == 1000
    assert all(10000 <= v <= 99999 for v in values)


def test_single_bucket_needs_digit_class():
    with pytest.raises(DatasetError):
        generate(spec(distribution="single-bucket", n=5))
    with pytest.raises(DatasetError):
        generate(spec(distribution="single-bucket", n=5, digit_class=20))


def test_single_bucket_distinct_capacity():
    # digit class 1 holds only the nine values 1..9
    values = generate(spec(distribution="single-bucket", n=9, digit_class=1, distinct=True))
    assert sorted(values) == list(range(1, 10))
    with pytest.raises(DatasetError):
        generate(spec(distribution="single-bucket", n=10, digit_class=1, distinct=True))


def test_uniform_respects_range():
    values = generate(spec(n=500, value_lo=-100, value_hi=400, seed=11))
    assert len(values) == 500
    assert all(-100 <= v <= 400 for v in values)


def test_determinism_same_seed_same_bytes():
    s = spec(n=6, value_lo=-100, value_hi=400, seed=12345)
    assert generate(s) == generate(s)


def test_different_seeds_differ():
    a = generate(spec(n=64, seed=1))
    b = generate(spec(n=64, seed=2))
    assert a != b


def test_sorted_ascending_is_strictly_increasing():
    values = generate(spec(distribution="sorted-ascending", n=100, seed=5))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_reverse_sorted_is_strictly_decreasing():
    values = generate(spec(distribution="reverse-sorted", n=100, seed=5))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_monotone_regimes_need_enough_distinct_values():
    with pytest.raises(DatasetError):
        generate(spec(distribution="sorted-ascending", n=11, value_lo=0, value_hi=9))


def test_with_negatives_straddles_zero():
    values = generate(spec(distribution="with-negatives", n=2000, seed=9))
    assert any(v < 0 for v in values)
    assert any(v > 0 for v in values)
    with pytest.raises(DatasetError):
        generate(spec(distribution="with-negatives", value_lo=1, value_hi=100))


def test_unknown_distribution_rejected():
    with pytest.raises(DatasetError):
        generate(spec(distribution="zipf"))


def test_negative_n_rejected():
    with pytest.raises(DatasetError):
        generate(spec(n=-1))


def test_empty_range_rejected():
    with pytest.raises(DatasetError):
        generate(spec(value_lo=5, value_hi=4))


@BAD_RANGES
@pytest.mark.parametrize("distribution", ["uniform", "with-negatives", "sorted-ascending"])
def test_value_range_is_checked_where_it_is_drawn_from(distribution, lo, hi, message):
    with pytest.raises(DatasetError, match=message):
        generate(spec(distribution=distribution, value_lo=lo, value_hi=hi))


@BAD_RANGES
@pytest.mark.parametrize(
    "kw", [dict(distribution="single-bucket", digit_class=3), dict(distribution="one-per-bucket")],
    ids=["single-bucket", "one-per-bucket"],
)
def test_value_range_is_ignored_where_it_is_not_drawn_from(kw, lo, hi, message):
    assert generate(spec(n=3, value_lo=lo, value_hi=hi, **kw)) == generate(spec(n=3, **kw))


def test_n_zero_is_empty():
    assert generate(spec(n=0)) == []


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(value_lo=0, value_hi=3), r"range \[0, 3\] holds fewer than 10 distinct values"),
        (
            dict(distribution="with-negatives", value_lo=-2, value_hi=2),
            r"range \[-2, 2\] holds fewer than 10 distinct values",
        ),
        (
            dict(distribution="single-bucket", digit_class=1),
            r"range \[1, 9\] holds fewer than 10 distinct values",
        ),
    ],
    ids=["uniform", "with-negatives", "single-bucket"],
)
def test_distinct_draws_need_enough_values(kw, message):
    with pytest.raises(DatasetError, match=message):
        generate(spec(n=10, distinct=True, **kw))
