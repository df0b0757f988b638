"""The one dispatch point between the pure sorts and their compiled twins.

numba may be missing, so the wrapper that ``sorts._compiled`` installs is
driven here with plain-Python fake kernels that take an int64 ndarray, the
way the numba kernels do.  Output and counts must equal the pure path.
"""

from __future__ import annotations

import importlib.util
import inspect
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
from arcsort import sorts

# Each dispatched function and the metric its kernel's second count adds to.
DISPATCHED = [
    (enhanced_selection_sort, "swaps"),
    (selection_sort, "swaps"),
    (insertion_sort, "writes"),
    (bubble_sort, "swaps"),
    (arc_sort, "swaps"),
]
IDS = [fn.__name__ for fn, _ in DISPATCHED]

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


def fake_kernel(pure, counter):
    """A kernel with the numba kernels' calling convention, built on ``pure``."""
    np = pytest.importorskip("numpy")

    def kernel(arr):
        assert isinstance(arr, np.ndarray) and arr.dtype == np.int64
        data, m = arr.tolist(), SortMetrics()
        out = pure(data, m)
        counts = np.int64(m.comparisons), np.int64(getattr(m, counter))
        if out is None:
            arr[:] = data
            return counts
        return (np.array(out, dtype=np.int64), *counts)

    return kernel


@pytest.mark.parametrize("fn, counter", DISPATCHED, ids=IDS)
@pytest.mark.parametrize("values", INPUTS, ids=lambda v: f"n{len(v)}")
def test_wrapper_equals_pure_path(fn, counter, values):
    pure = inspect.unwrap(fn)
    wrapped = sorts._wrap(pure, fake_kernel(pure, counter), counter)
    assert wrapped.__name__ == fn.__name__ and inspect.unwrap(wrapped) is pure

    pure_data, fast_data = list(values), list(values)
    # counts accumulate onto whatever the accumulator already holds
    pure_m, fast_m = SortMetrics(1, 2, 3), SortMetrics(1, 2, 3)
    pure_out = pure(pure_data, pure_m)
    fast_out = wrapped(fast_data, fast_m)
    assert fast_out == pure_out
    assert fast_data == pure_data
    assert fast_m == pure_m
    for result in (fast_out, fast_data):
        assert all(type(v) is int for v in result or [])
    if fn is arc_sort:
        assert fast_data == values  # arc_sort leaves its input alone

    none_data = list(values)
    assert wrapped(none_data) == pure_out  # metrics=None
    assert none_data == pure_data


@pytest.mark.skipif(sorts.USE_COMPILED, reason="compiled path is on")
@pytest.mark.parametrize("fn, counter", DISPATCHED, ids=IDS)
def test_pure_path_installs_no_wrapper(fn, counter):
    assert not hasattr(fn, "__wrapped__")
    assert inspect.unwrap(fn) is fn


@pytest.mark.skipif(importlib.util.find_spec("numba") is not None, reason="numba installed")
def test_import_leaves_numpy_unloaded():
    src = str(Path(arcsort.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, arcsort; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
