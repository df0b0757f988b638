"""Seeded dataset generators for the benchmark workloads.

Every generator is a pure function of its :class:`DatasetSpec`: the PRNG
is Python's ``random.Random`` (MT19937), seeded per spec, so identical
specs reproduce identical sequences bit for bit on any machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .buckets import (
    DEFAULT_VALUE_HI,
    DEFAULT_VALUE_LO,
    DISTRIBUTIONS,
    MAX_DIGITS,
)
from .sorts import INT64_MAX, INT64_MIN

PRNG_NAME = "mt19937-python-random"


class DatasetError(ValueError):
    """Raised for a spec that cannot produce a dataset."""


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one reproducible dataset.

    ``value_lo``/``value_hi`` bound every draw but single-bucket's, which
    draws from ``digit_class``'s range; one-per-bucket draws one value
    per digit class.  ``distinct`` draws without replacement, as the
    sorted regimes always do; every draw without replacement needs at
    least ``n`` values in its range.
    """

    distribution: str
    n: int
    seed: int
    value_lo: int = DEFAULT_VALUE_LO
    value_hi: int = DEFAULT_VALUE_HI
    digit_class: int | None = None
    distinct: bool = False


_MONOTONE = ("sorted-ascending", "reverse-sorted")


def _digit_range(d: int) -> tuple[int, int]:
    """Inclusive value range of positive integers with exactly d digits."""
    return 10 ** (d - 1), min(10**d - 1, INT64_MAX)


def _draw(spec: DatasetSpec) -> tuple[int, int, bool]:
    """Inclusive range of every draw but one-per-bucket's, and whether it is without replacement."""
    if spec.distribution == "single-bucket":
        lo, hi = _digit_range(spec.digit_class)
    else:
        lo, hi = spec.value_lo, spec.value_hi
    return lo, hi, spec.distinct or spec.distribution in _MONOTONE


def _validate(spec: DatasetSpec) -> None:
    if spec.distribution not in DISTRIBUTIONS:
        raise DatasetError(
            f"unknown distribution {spec.distribution!r}; expected one of {', '.join(DISTRIBUTIONS)}"
        )
    if spec.n < 0:
        raise DatasetError(f"n must be >= 0, got {spec.n}")
    if spec.distribution == "one-per-bucket":
        if spec.n > MAX_DIGITS:
            raise DatasetError(
                f"one-per-bucket supports at most {MAX_DIGITS} elements "
                f"(one per digit class), got n={spec.n}"
            )
        return
    d = spec.digit_class
    if spec.distribution == "single-bucket" and (d is None or not 1 <= d <= MAX_DIGITS):
        raise DatasetError(f"single-bucket needs digit_class in [1, {MAX_DIGITS}], got {d}")
    # The draw's range: single-bucket's digit class is never empty and fits int64.
    lo, hi, distinct = _draw(spec)
    if lo > hi:
        raise DatasetError(f"empty value range [{lo}, {hi}]")
    if lo < INT64_MIN or hi > INT64_MAX:
        raise DatasetError("value range exceeds the signed 64-bit domain")
    if spec.distribution == "with-negatives" and not lo < 0 < hi:
        raise DatasetError(f"with-negatives needs a range straddling zero, got [{lo}, {hi}]")
    if distinct and hi - lo + 1 < spec.n:
        raise DatasetError(f"range [{lo}, {hi}] holds fewer than {spec.n} distinct values")


def generate(spec: DatasetSpec) -> list[int]:
    """Produce the dataset described by ``spec``.

    Raises :class:`DatasetError` for invalid specs (unknown distribution,
    impossible n, a draw without replacement whose range holds fewer
    than n values, ...).
    """
    _validate(spec)
    rng = random.Random(spec.seed)
    dist = spec.distribution
    n = spec.n

    if dist == "one-per-bucket":
        values = [rng.randint(*_digit_range(d)) for d in range(1, n + 1)]
        rng.shuffle(values)
        return values

    lo, hi, distinct = _draw(spec)
    if not distinct:
        return [rng.randint(lo, hi) for _ in range(n)]
    values = rng.sample(range(lo, hi + 1), n)
    if dist in _MONOTONE:
        values.sort(reverse=dist == "reverse-sorted")
    return values
