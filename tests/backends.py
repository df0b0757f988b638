"""What each sort must do, and the backends it runs on, for the tests.

``CONTRACTS`` is the one place that states each sort's facts, keyed by its
``ALGORITHMS`` name: its index loop in ``tests/oracles.py`` as a sorted
copy and a ``SortMetrics`` (insertion sort reports writes, the others
swaps), its comparison law from the input alone, whether it swaps at most
once a pass, the containers it takes besides a list, and whether it sorts
in place or returns a new list.  ``INPUTS`` are a few fixed inputs that
every backend must sort as its index loop does.
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
into ints.  ``python`` runs a child interpreter with ``SRC``, the checkout's
``src``, first on its path: every test that launches one goes through it.
"""

from __future__ import annotations

import enum
import os
import random
import shutil
import subprocess
import sys
import tempfile
from array import array
from collections import deque
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import pytest

import arcsort
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
SRC = str(Path(arcsort.__file__).resolve().parent.parent)


def python(*args: str, env=None, launcher=(), **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child, behind ``launcher`` if one is given, with
    ``env`` added to this environment and ``SRC`` first on its path."""
    child_env = {**os.environ, **(env or {})}
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, child_env.get("PYTHONPATH")]))
    return subprocess.run([*launcher, sys.executable, *args], env=child_env, **kwargs)


def oracle(reference, moves: str = "swaps"):
    """``reference``'s (sorted copy, comparisons, moves) as (sorted copy, SortMetrics)."""

    def run(values: list[int]) -> tuple[list[int], SortMetrics]:
        out, comparisons, moved = reference(values)
        return out, SortMetrics(comparisons=comparisons, **{moves: moved})

    return run


class Contract(NamedTuple):
    oracle: Callable[[list[int]], tuple[list[int], SortMetrics]]
    law: Callable[[list[int]], int]  # comparisons, from the input alone
    one_swap_a_pass: bool  # so swaps <= max(n - 1, 0)
    containers: tuple  # what it takes besides a list, and sorts as that list
    in_place: bool  # sorts its data and returns it; else returns a new list


def int64_array(values) -> array:
    """``values`` as an ``array('q')``: a mutable sequence with no ``clear()``,
    whose slice takes only another array."""
    return array("q", values)


# an in-place sort takes any mutable sequence; arc_sort takes any iterable
CONTRACTS = {
    "arc": Contract(
        oracle(reference_arc),
        lambda values: sum(pair_comparisons(len(b)) for b in reference_buckets(values).values()),
        True,
        (deque, int64_array, tuple, iter),
        False,
    ),
    "enhanced-selection": Contract(
        oracle(reference_enhanced_selection), lambda values: pair_comparisons(len(values)),
        True, (deque, int64_array), True,
    ),
    "selection": Contract(
        oracle(reference_selection), lambda values: pair_comparisons(len(values)),
        True, (deque, int64_array), True,
    ),
    "insertion": Contract(
        oracle(reference_insertion, "writes"), insertion_comparisons, False, (deque, int64_array), True
    ),
    "bubble": Contract(
        oracle(reference_bubble), lambda values: bubble_count_laws(values)[0],
        False, (deque, int64_array), True,
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


# short lists, the int64 ends, ties, and longer random lists of small and of
# full-range keys
_rng = random.Random(20140609)
INPUTS = [
    [],
    [7],
    [-(2**63)],
    [2, 1],
    [349, 34, -72, 22, 14, -1],
    [5, 5, 5, 1, 5],
    [2**63 - 1, -(2**63), 0, 10**18, -1, 9],
    [_rng.randint(-40, 40) for _ in range(60)],
    [_rng.randint(-(2**63), 2**63 - 1) for _ in range(45)],
]


def assert_is_the_index_loop(run, name: str, values: list[int]) -> None:
    """``run``, the sort ``name`` on some backend, gives the result and counts of
    its index loop, adds them onto what the accumulator holds, sorts in place or
    returns a new list as ``CONTRACTS`` says, and obeys its comparison law and,
    where ``CONTRACTS`` says so, the bound of one swap a pass."""
    contract = CONTRACTS[name]
    want, counts = contract.oracle(values)
    assert want == sorted(values)
    assert counts.comparisons == contract.law(values)
    if contract.one_swap_a_pass:
        assert counts.swaps <= max(len(values) - 1, 0)
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
