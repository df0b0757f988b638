"""The calling contract that all five sort entry points share.

Each entry point has one definition, so it is checked directly: the
result equals ``sorted()``, counts add onto whatever the accumulator
already holds, ``metrics=None`` works, ``arc_sort`` leaves its input
alone, and every result value is a plain ``int``.  Bubble sort also has
a compiled twin: where it cannot be built or loaded, the pure kernel runs
with the same output and counts.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import arcsort
from arcsort import (
    SortMetrics,
    arc_sort,
    bubble_sort,
    enhanced_selection_sort,
    insertion_sort,
    selection_sort,
)
from arcsort._compiled import kernels
from backends import needs_cc
from oracles import reference_bubble

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
def test_bubble_falls_back_to_its_pure_kernel(fresh_loader, monkeypatch, tmp_path, fault):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    fault(tmp_path, monkeypatch)
    assert kernels() is None
    for values in INPUTS:
        expected_sorted, expected_cmp, expected_swaps = reference_bubble(values)
        data = list(values)
        metrics = SortMetrics()
        assert bubble_sort(data, metrics) is data
        assert data == expected_sorted
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
