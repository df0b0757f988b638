"""The calling contract that all five sort entry points share.

Each entry point has one definition, so it is checked directly: the
result equals ``sorted()``, counts add onto whatever the accumulator
already holds, ``metrics=None`` works, ``arc_sort`` leaves its input
alone, and every result value is a plain ``int``.
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
