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
    INT64_MAX,
    INT64_MIN,
    MAX_DIGITS,
)

PRNG_NAME = "mt19937-python-random"


class DatasetError(ValueError):
    """Raised for a spec that cannot produce a dataset."""


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one reproducible dataset.

    ``value_lo``/``value_hi`` bound the uniform and with-negatives draws;
    ``digit_class`` selects the bucket for single-bucket data; ``distinct``
    forces sampling without replacement where it applies.
    """

    distribution: str
    n: int
    seed: int
    value_lo: int = DEFAULT_VALUE_LO
    value_hi: int = DEFAULT_VALUE_HI
    digit_class: int | None = None
    distinct: bool = False


def _digit_range(d: int) -> tuple[int, int]:
    """Inclusive value range of positive integers with exactly d digits."""
    return 10 ** (d - 1), min(10**d - 1, INT64_MAX)


def _validate(spec: DatasetSpec) -> None:
    if spec.distribution not in DISTRIBUTIONS:
        raise DatasetError(
            f"unknown distribution {spec.distribution!r}; expected one of {', '.join(DISTRIBUTIONS)}"
        )
    if spec.n < 0:
        raise DatasetError(f"n must be >= 0, got {spec.n}")
    if spec.value_lo > spec.value_hi:
        raise DatasetError(f"empty value range [{spec.value_lo}, {spec.value_hi}]")
    if spec.value_lo < INT64_MIN or spec.value_hi > INT64_MAX:
        raise DatasetError("value range exceeds the signed 64-bit domain")

    if spec.distribution == "one-per-bucket" and spec.n > MAX_DIGITS:
        raise DatasetError(
            f"one-per-bucket supports at most {MAX_DIGITS} elements "
            f"(one per digit class), got n={spec.n}"
        )
    if spec.distribution == "single-bucket":
        d = spec.digit_class
        if d is None or not 1 <= d <= MAX_DIGITS:
            raise DatasetError(
                f"single-bucket needs digit_class in [1, {MAX_DIGITS}], got {d}"
            )
        if spec.distinct:
            lo, hi = _digit_range(d)
            if hi - lo + 1 < spec.n:
                raise DatasetError(
                    f"digit class {d} holds only {hi - lo + 1} distinct values, "
                    f"cannot supply {spec.n}"
                )
    if spec.distribution in ("sorted-ascending", "reverse-sorted"):
        if spec.value_hi - spec.value_lo + 1 < spec.n:
            raise DatasetError(
                f"range [{spec.value_lo}, {spec.value_hi}] holds fewer than "
                f"{spec.n} distinct values"
            )
    if spec.distribution == "with-negatives" and not spec.value_lo < 0 < spec.value_hi:
        raise DatasetError(
            f"with-negatives needs a range straddling zero, got "
            f"[{spec.value_lo}, {spec.value_hi}]"
        )


def generate(spec: DatasetSpec) -> list[int]:
    """Produce the dataset described by ``spec``.

    Raises :class:`DatasetError` for invalid specs (unknown distribution,
    impossible n, a digit class that cannot supply enough distinct values
    when distinctness is requested, ...).
    """
    _validate(spec)
    rng = random.Random(spec.seed)
    dist = spec.distribution
    n = spec.n

    if dist in ("uniform", "with-negatives"):
        lo, hi = spec.value_lo, spec.value_hi
        if spec.distinct:
            return rng.sample(range(lo, hi + 1), n)
        return [rng.randint(lo, hi) for _ in range(n)]

    if dist == "one-per-bucket":
        values = []
        for d in range(1, n + 1):
            lo, hi = _digit_range(d)
            values.append(rng.randint(lo, hi))
        rng.shuffle(values)
        return values

    if dist == "single-bucket":
        lo, hi = _digit_range(spec.digit_class)
        if spec.distinct:
            return rng.sample(range(lo, hi + 1), n)
        return [rng.randint(lo, hi) for _ in range(n)]

    # sorted-ascending / reverse-sorted: distinct draws, strictly monotone.
    values = rng.sample(range(spec.value_lo, spec.value_hi + 1), n)
    values.sort(reverse=dist == "reverse-sorted")
    return values
