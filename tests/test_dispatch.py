"""The calling contract that all five sort entry points share.

Each entry point has one definition, so it is checked directly: the
result equals ``sorted()``, counts add onto whatever the accumulator
already holds, ``metrics=None`` works, ``arc_sort`` leaves its input
alone, and every result value is a plain ``int``.  The sorts of
``backends.COMPILED`` also have a compiled twin: each backend gives the
output and counts of the sort's index loop, and where the twin cannot be
built or loaded, the pure path runs.
"""

from __future__ import annotations

import ctypes
import os
import random
import subprocess
import sys
from array import array
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import arcsort
from arcsort import (
    SortMetrics,
    arc_sort,
    bubble_sort,
    enhanced_selection_sort,
    insertion_sort,
    selection_sort,
)
from arcsort import _compiled
from arcsort._compiled import kernels
from arcsort.sorts import INT64_MAX, INT64_MIN
from backends import BACKENDS, COMPILED, ORACLES, needs_cc, on
from oracles import bubble_count_laws, pair_comparisons, reference_buckets

ENTRY_POINTS = [enhanced_selection_sort, selection_sort, insertion_sort, bubble_sort, arc_sort]
IDS = [fn.__name__ for fn in ENTRY_POINTS]

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


def sort_copy(fn, values, metrics=None):
    """Sort a copy of ``values``; return the result and the copy afterwards."""
    data = list(values)
    out = fn(data, metrics)
    return (data if out is None else out), data


# Each in-place entry point wraps the pure-Python body it holds as ``.kernel``:
# the wrapper checks the keys, defaults the metrics and returns the data.
@pytest.mark.parametrize("fn", ENTRY_POINTS, ids=IDS)
@pytest.mark.parametrize("values", INPUTS, ids=lambda v: f"n{len(v)}")
def test_wrapper_equals_pure_path(fn, values):
    fresh = SortMetrics()
    result, data = sort_copy(fn, values, fresh)
    assert result == sorted(values)
    assert all(type(v) is int for v in result)
    if fn is arc_sort:
        assert data == values

    # counts accumulate onto whatever the accumulator already holds
    held = SortMetrics(1, 2, 3)
    assert sort_copy(fn, values, held)[0] == result
    assert held == SortMetrics(1 + fresh.comparisons, 2 + fresh.swaps, 3 + fresh.writes)

    assert sort_copy(fn, values)[0] == result  # metrics=None


def test_import_leaves_numpy_unloaded():
    src = str(Path(arcsort.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, arcsort; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.fixture
def fresh_loader():
    """Make ``kernels`` observe the test's environment, and the real one after."""
    kernels.cache_clear()
    yield
    kernels.cache_clear()


def fake_cc(directory: Path, script: str) -> Path:
    """A directory holding only a ``cc`` that runs ``script`` in sh."""
    directory.mkdir()
    cc = directory / "cc"
    cc.write_text("#!/bin/sh\n" + script)
    cc.chmod(0o755)
    return directory


def cc_missing(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path))


def cache_unwritable(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))  # no directory goes under a file


def build_fails(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(fake_cc(tmp_path / "bin", "exit 1\n")))


def load_fails(tmp_path, monkeypatch):
    writes_junk = 'while [ $# -gt 0 ]; do [ "$1" = -o ] && echo junk > "$2"; shift; done\n'
    monkeypatch.setenv("PATH", str(fake_cc(tmp_path / "bin", writes_junk)))


@pytest.mark.parametrize("fault", [cc_missing, cache_unwritable, build_fails, load_fails])
def test_compiled_sorts_fall_back_to_their_pure_paths(fresh_loader, monkeypatch, tmp_path, fault):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    fault(tmp_path, monkeypatch)
    assert kernels() is None
    for sort in COMPILED:
        for values in INPUTS:
            expected_sorted, expected_cmp, expected_swaps = ORACLES[sort.__name__](values)
            metrics = SortMetrics()
            assert sort(list(values), metrics) == expected_sorted, sort.__name__
            assert metrics == SortMetrics(comparisons=expected_cmp, swaps=expected_swaps)
    # a failed build or load leaves no file in the cache, so the next process builds again
    assert [p for p in (tmp_path / "cache").rglob("*") if not p.is_dir()] == []


@needs_cc
def test_build_is_cached_and_then_needs_no_compiler(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert kernels() is not None
    (built,) = (tmp_path / "arcsort").iterdir()
    assert built.name.startswith("_ckernels-") and built.suffix == ".so"
    kernels.cache_clear()
    monkeypatch.setenv("PATH", str(built.parent))  # no cc there
    assert kernels() is not None
    assert list(built.parent.iterdir()) == [built]


@needs_cc
def test_a_cached_build_that_does_not_load_is_built_again(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "first"))
    assert kernels() is not None
    (built,) = (tmp_path / "first" / "arcsort").iterdir()
    # junk at the keyed path of another cache: a path this process has not loaded
    junk = tmp_path / "second" / "arcsort" / built.name
    junk.parent.mkdir(parents=True)
    junk.write_bytes(b"junk")
    kernels.cache_clear()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "second"))
    assert kernels() is not None
    assert list(junk.parent.iterdir()) == [junk]
    assert junk.read_bytes().startswith(b"\x7fELF")


NAMES = [sort.__name__ for sort in COMPILED]
# both sides of every digit-class boundary, 0 | 1 to 10**18 - 1 | 10**18, the
# int64 ends and -1
DIGIT_EDGES = [k for d in range(19) for k in (10**d - 1, 10**d)] + [INT64_MAX, INT64_MIN, -1]
edge_lists = st.lists(
    st.one_of(st.sampled_from(DIGIT_EDGES), st.integers(min_value=-3, max_value=3),
              st.integers(min_value=INT64_MIN, max_value=INT64_MAX)),
    max_size=64,
)


@pytest.mark.parametrize("sort", COMPILED, ids=NAMES)
@pytest.mark.parametrize("backend", BACKENDS)
@example(values=DIGIT_EDGES)
@example(values=DIGIT_EDGES[::-1] * 2)
@settings(deadline=None, max_examples=150)
@given(values=edge_lists)
def test_both_backends_equal_the_index_loop(backend, sort, values):
    expected_sorted, expected_cmp, expected_swaps = ORACLES[sort.__name__](values)
    data = list(values)
    metrics = SortMetrics(comparisons=7, swaps=5, writes=3)
    assert on(backend, sort)(data, metrics) == expected_sorted
    assert metrics == SortMetrics(comparisons=7 + expected_cmp, swaps=5 + expected_swaps, writes=3)
    if sort is arc_sort:
        assert data == values


# each compiled sort's name -> its comparisons, from its input alone
COMPARISON_LAWS = {
    "arc_sort": lambda values: sum(
        pair_comparisons(len(b)) for b in reference_buckets(values).values()
    ),
    "bubble_sort": lambda values: bubble_count_laws(values)[0],
}


@pytest.mark.parametrize("sort", COMPILED, ids=NAMES)
@pytest.mark.parametrize("backend", BACKENDS)
@settings(deadline=None, max_examples=100)
@given(values=st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=200))
def test_both_backends_follow_the_comparison_law(backend, sort, values):
    metrics = SortMetrics()
    on(backend, sort)(list(values), metrics)
    assert metrics.comparisons == COMPARISON_LAWS[sort.__name__](values)


# an in-place sort takes any mutable sequence; arc_sort takes any iterable
CONTAINERS = {"arc_sort": [deque, tuple, iter], "bubble_sort": [deque]}


@pytest.mark.parametrize("sort", COMPILED, ids=NAMES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_both_backends_take_any_sequence(backend, sort):
    run = on(backend, sort)
    values = [(i * 37) % 23 - 11 for i in range(150)]
    want_metrics = SortMetrics()
    want = list(run(list(values), want_metrics))
    for container in CONTAINERS[sort.__name__]:
        data = container(values)
        metrics = SortMetrics()
        out = run(data, metrics)
        assert list(out) == want == sorted(values), container.__name__
        assert metrics == want_metrics
        if sort is not arc_sort:
            assert out is data  # sorted in place


@needs_cc
def test_a_failed_allocation_raises_memory_error_and_sorts_nothing(monkeypatch):
    keys = array("q", [3, 1, 2])
    counts = array("q", [0, 0])
    # a scratch buffer of 2**63 bytes: more than any address space holds
    kernels().arc_sort(keys.buffer_info()[0], 2**60, counts.buffer_info()[0])
    assert counts[0] == -1
    assert list(keys) == [3, 1, 2]

    def no_memory(a, n, counts):
        ctypes.c_int64.from_address(counts).value = -1

    monkeypatch.setattr(_compiled, "kernels", lambda: SimpleNamespace(arc_sort=no_memory))
    values = [3, 1, 2]
    metrics = SortMetrics()
    with pytest.raises(MemoryError, match="arc_sort"):
        arc_sort(values, metrics)  # no fallback to the pure path after the failure
    assert values == [3, 1, 2]
    assert metrics == SortMetrics()
