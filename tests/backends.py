"""What each sort must do, and the backends it runs on, for the tests.

``CONTRACTS`` is the one place that states each sort's facts, keyed by its
``ALGORITHMS`` name: its index loop in ``tests/oracles.py`` as a sorted
copy and a ``SortMetrics`` (insertion sort reports writes, the others
swaps), its comparison law from the input alone, the containers it takes
besides a list, and whether it sorts in place or returns a new list.
``PARAMS`` lists every sort once for each backend it has, as
``(backend, name)``: ``"pure"`` for every sort, and ``"c"``, which needs a
compiler, for a sort with ``.compiled`` set.  A param's id is the sort's
``__name__``, with ``_pure`` added to the pure case of a sort that also
has a twin.  A test of a per-sort contract parametrizes over ``PARAMS``,
reads ``CONTRACTS`` and runs the sort through ``on``, so a new C twin is
one C function and one flag: every such test picks it up.

A sort with ``.compiled`` set runs its C twin wherever
``arcsort._compiled.kernels`` can build and load ``_ckernels.c``.
``no_compiler`` fakes the observation that makes it run its pure path
instead, as on a host with no ``cc``: an empty ``PATH`` and an empty
cache directory.  That costs a spawn of the missing ``cc`` each time, so
``pure_path``, which ``on`` uses, gives the sorts a ``kernels`` that
finds nothing instead; the loader's own tests take the real path.
``Digits`` and ``Index`` are integer-like keys that the key rule turns
into ints.
"""

from __future__ import annotations

import enum
import shutil
import tempfile
from collections import deque
from collections.abc import Callable
from contextlib import contextmanager
from typing import NamedTuple

import pytest

from arcsort import ALGORITHMS, SortMetrics, _compiled
from arcsort._compiled import kernels
from oracles import (
    bubble_count_laws,
    insertion_comparisons,
    pair_comparisons,
    reference_arc,
    reference_bubble,
    reference_buckets,
    reference_enhanced_selection,
    reference_insertion,
    reference_selection,
)

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def oracle(reference, moves: str = "swaps"):
    """``reference``'s (sorted copy, comparisons, moves) as (sorted copy, SortMetrics)."""

    def run(values: list[int]) -> tuple[list[int], SortMetrics]:
        out, comparisons, moved = reference(values)
        return out, SortMetrics(comparisons=comparisons, **{moves: moved})

    return run


class Contract(NamedTuple):
    oracle: Callable[[list[int]], tuple[list[int], SortMetrics]]
    law: Callable[[list[int]], int]  # comparisons, from the input alone
    containers: tuple  # what it takes besides a list, and sorts as that list
    in_place: bool  # sorts its data and returns it; else returns a new list


# an in-place sort takes any mutable sequence; arc_sort takes any iterable
CONTRACTS = {
    "arc": Contract(
        oracle(reference_arc),
        lambda values: sum(pair_comparisons(len(b)) for b in reference_buckets(values).values()),
        (deque, tuple, iter),
        False,
    ),
    "enhanced-selection": Contract(
        oracle(reference_enhanced_selection), lambda values: pair_comparisons(len(values)),
        (deque,), True,
    ),
    "selection": Contract(
        oracle(reference_selection), lambda values: pair_comparisons(len(values)), (deque,), True
    ),
    "insertion": Contract(
        oracle(reference_insertion, "writes"), insertion_comparisons, (deque,), True
    ),
    "bubble": Contract(
        oracle(reference_bubble), lambda values: bubble_count_laws(values)[0], (deque,), True
    ),
}

PARAMS = [
    param
    for name, sort in ALGORITHMS.items()
    for param in (
        [pytest.param("c", name, marks=needs_cc, id=sort.__name__),
         pytest.param("pure", name, id=f"{sort.__name__}_pure")]
        if sort.compiled
        else [pytest.param("pure", name, id=sort.__name__)]
    )
]


def assert_is_the_index_loop(run, name: str, values: list[int]) -> None:
    """``run``, the sort ``name`` on some backend, gives the result and counts of
    its index loop, adds them onto what the accumulator holds, sorts in place or
    returns a new list as ``CONTRACTS`` says, and obeys its comparison law."""
    contract = CONTRACTS[name]
    want, counts = contract.oracle(values)
    assert counts.comparisons == contract.law(values)
    data = list(values)
    held = SortMetrics(1, 2, 3)
    out = run(data, held)
    assert out == want
    assert all(type(v) is int for v in out)
    assert held == SortMetrics(1 + counts.comparisons, 2 + counts.swaps, 3 + counts.writes)
    assert out is data if contract.in_place else data == values


@contextmanager
def no_compiler():
    """Run the block as if no compiler and no cached build could be found."""
    with tempfile.TemporaryDirectory() as empty, pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", empty)
        mp.setenv("XDG_CACHE_HOME", empty)
        kernels.cache_clear()
        try:
            yield
        finally:
            kernels.cache_clear()  # the next call loads again, in the real environment


@contextmanager
def pure_path():
    """Run the block as :func:`no_compiler` does, with no ``cc`` spawned: the
    sorts find no library, and run their pure paths."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_compiled, "kernels", lambda: None)
        yield


def on(backend: str, name: str):
    """The sort ``name`` on ``backend`` of one of PARAMS; "c" requires the twin to load."""
    sort = ALGORITHMS[name]
    if backend == "c":
        assert kernels() is not None  # a compiler is on PATH: the C twin must load
    if backend == "c" or not sort.compiled:
        return sort

    def pure(*args, **kwargs):
        with pure_path():
            return sort(*args, **kwargs)

    return pure


# integer-like keys that are not ints: the key rule replaces each by its int
class Digits(enum.IntEnum):
    TWELVE = 12


class Index:
    """An integer-like key that is not an int: it has ``__index__`` only."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value
