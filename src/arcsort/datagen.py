"""Seeded dataset generators for the benchmark workloads.

Every generator is a pure function of its :class:`DatasetSpec`: the PRNG
is Python's ``random.Random`` (MT19937), seeded per spec, so identical
specs reproduce identical sequences bit for bit on any machine.

The draws are this module's own rejection sampling over
``getrandbits``: a draw from ``range(m)`` takes ``m.bit_length()`` bits
and redraws while they read ``m`` or more.  That is the exact sequence
of calls ``random.Random`` makes on Python 3.10-3.12 for ``randint``,
``sample`` and ``shuffle``, which each distribution drew through before,
so every dataset is the one those calls gave, draw for draw.  CPython
promises across versions only the sequence of ``random()``, not the
algorithms of those three, so the datasets now rest on MT19937's
``getrandbits`` alone; and each accepted draw costs a step of one
generator in place of a chain of Python-level calls.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import islice, repeat
from math import ceil, log

from .sorts import INT64_MAX, INT64_MIN, MAX_DIGITS

PRNG_NAME = "mt19937-python-random"

# Dataset shapes that ``generate`` builds; the CLI lists them.
DISTRIBUTIONS = (
    "uniform",
    "one-per-bucket",
    "single-bucket",
    "sorted-ascending",
    "reverse-sorted",
    "with-negatives",
)

# Covers buckets 0-7 with a realistic multi-bucket spread.
DEFAULT_VALUE_LO = -1_000_000
DEFAULT_VALUE_HI = 1_000_000


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
    # random.sample needed len() of the range; the own draw does not, but the
    # rule stays, so no spec that was refused draws now
    if distinct and hi - lo >= sys.maxsize:
        raise DatasetError(f"range [{lo}, {hi}] is too wide to draw distinct values from")


def _draws_below(getrandbits: Callable[[int], int], m: int) -> Iterator[int]:
    """Endless draws from ``range(m)``, each as ``random.Random._randbelow(m)``
    makes it: ``k = m.bit_length()`` bits, drawn again while ``r >= m``."""
    k = m.bit_length()  # not (m - 1): m may be 1
    for r in map(getrandbits, repeat(k)):
        if r < m:
            yield r


def _setsize(n: int) -> int:
    """``random.Random.sample``'s bound: it draws ``n`` from a population of at
    most this many by a partial shuffle of it, and from a larger one by rejection."""
    return 21 + (4 ** ceil(log(n * 3, 4)) if n > 5 else 0)


def generate(spec: DatasetSpec) -> list[int]:
    """Produce the dataset described by ``spec``.

    Raises :class:`DatasetError` for invalid specs (unknown distribution,
    impossible n, a draw without replacement whose range holds fewer
    than n values, ...).  Each regime draws as the ``random.Random`` call
    it names below did: ``randint`` is ``lo`` plus a draw below the
    range's width, and the draws that fill a list are one stream of them.
    """
    _validate(spec)
    bits = random.Random(spec.seed).getrandbits
    dist = spec.distribution
    n = spec.n

    if dist == "one-per-bucket":
        values = []
        for d in range(1, n + 1):  # randint over each digit class
            lo, hi = _digit_range(d)
            values.append(lo + next(_draws_below(bits, hi - lo + 1)))
        for i in range(n - 1, 0, -1):  # shuffle: swap slot i with one of slots 0..i
            j = next(_draws_below(bits, i + 1))
            values[i], values[j] = values[j], values[i]
        return values

    lo, hi, distinct = _draw(spec)
    width = hi - lo + 1
    if not distinct:  # randint, n times
        return [lo + r for r in islice(_draws_below(bits, width), n)]
    # sample(range(lo, hi + 1), n), by its two branches
    monotone = dist in _MONOTONE
    if width <= _setsize(n):
        # a partial shuffle of the pool: draw slot j of the width - i left,
        # and move the last of them into it
        pool = list(range(lo, hi + 1))
        chosen = []
        for i in range(n):
            j = next(_draws_below(bits, width - i))
            chosen.append(pool[j])
            pool[j] = pool[width - i - 1]
    else:
        # the first n distinct draws: a set when they are sorted next, so no
        # list in draw order is kept beside it, else a dict, which keeps that order
        draws = _draws_below(bits, width)
        chosen = set() if monotone else {}
        while len(chosen) < n:
            drawn = [lo + r for r in islice(draws, n - len(chosen))]
            chosen.update(drawn if monotone else dict.fromkeys(drawn))
    return sorted(chosen, reverse=dist == "reverse-sorted") if monotone else list(chosen)
