"""Outputs and operation counts frozen across commits.

``EXAMPLES`` holds small inputs, each with its sorted output and every
sort's ``(comparisons, swaps, writes)``, and runs on every backend of
``backends.PARAMS``.  ``FROZEN`` holds the counts per trial of
:func:`arcsort.bench.run_benchmark` with the ``arcsort bench`` defaults
(5 trials, dataset seeds from :func:`arcsort.bench.derive_seed`), the same
numbers ``arcsort bench`` prints in its count columns.  Both were taken
from the index loops in ``tests/oracles.py``.  A rewrite of any sort must
reproduce them exactly, ties included.
"""

from __future__ import annotations

import pytest

from arcsort import SortMetrics
from arcsort.bench import ALGORITHMS, run_benchmark
from arcsort.datagen import DatasetSpec
from backends import CONTRACTS, PARAMS, on

SINGLE_BUCKET = [10000 + (i * 7919) % 90000 for i in range(1000)]  # five digits each

# id -> (input, sorted output, each sort's (comparisons, swaps, writes) in
# ALGORITHMS order: arc, enhanced-selection, selection, insertion, bubble)
EXAMPLES = {
    "empty": ([], [], [(0, 0, 0)] * 5),
    "one": ([5], [5], [(0, 0, 0)] * 5),
    "two": ([2, 1], [1, 2], [(1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 0, 1), (1, 1, 0)]),
    # max-selection promotes the earlier of equal keys on `>=`, so it swaps them
    "tie": ([7, 7], [7, 7], [(1, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)]),
    # insertion and bubble make one clean pass; the selection sorts scan it all
    "sorted": ([1, 2, 3], [1, 2, 3], [(3, 0, 0), (3, 0, 0), (3, 0, 0), (2, 0, 0), (2, 0, 0)]),
    "rotated": ([3, 1, 2], [1, 2, 3], [(3, 2, 0), (3, 2, 0), (3, 2, 0), (3, 0, 2), (3, 2, 0)]),
    "reversed": ([3, 2, 1], [1, 2, 3], [(3, 1, 0), (3, 1, 0), (3, 1, 0), (3, 0, 3), (3, 3, 0)]),
    "all-equal": ([2, 2, 2], [2, 2, 2], [(3, 2, 0), (3, 2, 0), (3, 0, 0), (2, 0, 0), (2, 0, 0)]),
    "bucket-of-three": (
        [34, 22, 14], [14, 22, 34], [(3, 1, 0), (3, 1, 0), (3, 1, 0), (3, 0, 3), (3, 3, 0)],
    ),
    # the worked example: arc scans a bucket of two keys and one of three
    "golden": (
        [349, 34, -72, 22, 14, -1], [-72, -1, 14, 22, 34, 349],
        [(4, 1, 0), (15, 4, 0), (15, 4, 0), (15, 0, 12), (15, 12, 0)],
    ),
    # one key a bucket: arc compares nothing
    "one-per-bucket": (
        [5, 50, 500, 5000], [5, 50, 500, 5000],
        [(0, 0, 0), (6, 0, 0), (6, 0, 0), (3, 0, 0), (3, 0, 0)],
    ),
    "increasing-thousand": (
        list(range(1000)), list(range(1000)),
        [(408591, 0, 0), (499500, 0, 0), (499500, 0, 0), (999, 0, 0), (999, 0, 0)],
    ),
    # one bucket: arc is a full max-selection scan
    "single-bucket-thousand": (
        SINGLE_BUCKET, sorted(SINGLE_BUCKET),
        [(499500, 992, 0), (499500, 992, 0), (499500, 992, 0), (248869, 0, 247870),
         (499035, 247870, 0)],
    ),
}


@pytest.mark.parametrize("backend, name", PARAMS)
@pytest.mark.parametrize("example", EXAMPLES)
def test_examples_equal_frozen_table(backend, name, example):
    values, want, counts = EXAMPLES[example]
    data = list(values)
    metrics = SortMetrics()
    out = on(backend, name)(data, metrics)
    assert out == want
    assert (metrics.comparisons, metrics.swaps, metrics.writes) == dict(zip(ALGORITHMS, counts))[name]
    assert out is data if CONTRACTS[name].in_place else data == values


GRIDS = {
    ("uniform", 11): (0, 1, 2, 50, 300),
    ("with-negatives", 3): (1, 7, 200),
    # monotone input: insertion's early-exit guard and its full shift
    ("sorted-ascending", 5): (1, 2, 50, 300),
    ("reverse-sorted", 7): (1, 2, 50, 300),
}

# (distribution, algorithm, n) -> per-trial (comparisons, swaps, writes)
FROZEN = {
    ("uniform", "arc", 0): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "arc", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "arc", 2): [(1, 1, 0), (1, 0, 0), (0, 0, 0), (0, 0, 0), (1, 0, 0)],
    ("uniform", "arc", 50): [(582, 41, 0), (582, 40, 0), (554, 38, 0), (537, 38, 0), (536, 38, 0)],
    ("uniform", "arc", 300): [
        (20370, 284, 0), (20323, 282, 0), (20098, 284, 0), (20761, 287, 0), (20738, 281, 0),
    ],
    ("uniform", "enhanced-selection", 0): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "enhanced-selection", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "enhanced-selection", 2): [(1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)],
    ("uniform", "enhanced-selection", 50): [
        (1225, 43, 0), (1225, 45, 0), (1225, 46, 0), (1225, 43, 0), (1225, 45, 0),
    ],
    ("uniform", "enhanced-selection", 300): [
        (44850, 292, 0), (44850, 293, 0), (44850, 293, 0), (44850, 295, 0), (44850, 294, 0),
    ],
    ("uniform", "selection", 0): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "selection", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "selection", 2): [(1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)],
    ("uniform", "selection", 50): [
        (1225, 43, 0), (1225, 45, 0), (1225, 46, 0), (1225, 43, 0), (1225, 45, 0),
    ],
    ("uniform", "selection", 300): [
        (44850, 292, 0), (44850, 293, 0), (44850, 293, 0), (44850, 295, 0), (44850, 294, 0),
    ],
    ("uniform", "insertion", 0): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "insertion", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "insertion", 2): [(1, 0, 1), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)],
    ("uniform", "insertion", 50): [
        (618, 0, 573), (706, 0, 659), (643, 0, 596), (537, 0, 493), (485, 0, 439),
    ],
    ("uniform", "insertion", 300): [
        (21988, 0, 21692), (22189, 0, 21895), (22113, 0, 21819), (24081, 0, 23789), (21814, 0, 21522),
    ],
    ("uniform", "bubble", 0): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "bubble", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("uniform", "bubble", 2): [(1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)],
    ("uniform", "bubble", 50): [
        (1189, 573, 0), (1222, 659, 0), (1159, 596, 0), (1222, 493, 0), (1189, 439, 0),
    ],
    ("uniform", "bubble", 300): [
        (44730, 21692, 0), (44472, 21895, 0), (44472, 21819, 0), (44795, 23789, 0), (44795, 21522, 0),
    ],
    ("with-negatives", "arc", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("with-negatives", "arc", 7): [(7, 3, 0), (4, 1, 0), (6, 1, 0), (9, 2, 0), (11, 2, 0)],
    ("with-negatives", "arc", 200): [
        (9145, 187, 0), (8911, 184, 0), (8984, 190, 0), (8941, 184, 0), (9326, 190, 0),
    ],
    ("with-negatives", "enhanced-selection", 1): [
        (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    ],
    ("with-negatives", "enhanced-selection", 7): [
        (21, 6, 0), (21, 5, 0), (21, 4, 0), (21, 5, 0), (21, 6, 0),
    ],
    ("with-negatives", "enhanced-selection", 200): [
        (19900, 192, 0), (19900, 196, 0), (19900, 197, 0), (19900, 193, 0), (19900, 191, 0),
    ],
    ("with-negatives", "selection", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("with-negatives", "selection", 7): [
        (21, 6, 0), (21, 5, 0), (21, 4, 0), (21, 5, 0), (21, 6, 0),
    ],
    ("with-negatives", "selection", 200): [
        (19900, 192, 0), (19900, 196, 0), (19900, 197, 0), (19900, 193, 0), (19900, 191, 0),
    ],
    ("with-negatives", "insertion", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("with-negatives", "insertion", 7): [
        (19, 0, 16), (14, 0, 11), (11, 0, 6), (16, 0, 13), (16, 0, 12),
    ],
    ("with-negatives", "insertion", 200): [
        (10478, 0, 10284), (10697, 0, 10500), (9908, 0, 9711), (10288, 0, 10091), (10471, 0, 10275),
    ],
    ("with-negatives", "bubble", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("with-negatives", "bubble", 7): [
        (21, 16, 0), (21, 11, 0), (18, 6, 0), (21, 13, 0), (21, 12, 0),
    ],
    ("with-negatives", "bubble", 200): [
        (19809, 10284, 0), (18772, 10500, 0), (19879, 9711, 0), (19879, 10091, 0), (19647, 10275, 0),
    ],
    ("sorted-ascending", "arc", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("sorted-ascending", "arc", 2): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("sorted-ascending", "arc", 50): [
        (516, 0, 0), (576, 0, 0), (636, 0, 0), (554, 0, 0), (532, 0, 0),
    ],
    ("sorted-ascending", "arc", 300): [
        (20398, 0, 0), (20255, 0, 0), (19437, 0, 0), (19749, 0, 0), (20014, 0, 0),
    ],
    ("sorted-ascending", "enhanced-selection", 1): [
        (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    ],
    ("sorted-ascending", "enhanced-selection", 2): [
        (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0),
    ],
    ("sorted-ascending", "enhanced-selection", 50): [
        (1225, 0, 0), (1225, 0, 0), (1225, 0, 0), (1225, 0, 0), (1225, 0, 0),
    ],
    ("sorted-ascending", "enhanced-selection", 300): [
        (44850, 0, 0), (44850, 0, 0), (44850, 0, 0), (44850, 0, 0), (44850, 0, 0),
    ],
    ("sorted-ascending", "selection", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("sorted-ascending", "selection", 2): [(1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)],
    ("sorted-ascending", "selection", 50): [
        (1225, 0, 0), (1225, 0, 0), (1225, 0, 0), (1225, 0, 0), (1225, 0, 0),
    ],
    ("sorted-ascending", "selection", 300): [
        (44850, 0, 0), (44850, 0, 0), (44850, 0, 0), (44850, 0, 0), (44850, 0, 0),
    ],
    ("sorted-ascending", "insertion", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("sorted-ascending", "insertion", 2): [(1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)],
    ("sorted-ascending", "insertion", 50): [
        (49, 0, 0), (49, 0, 0), (49, 0, 0), (49, 0, 0), (49, 0, 0),
    ],
    ("sorted-ascending", "insertion", 300): [
        (299, 0, 0), (299, 0, 0), (299, 0, 0), (299, 0, 0), (299, 0, 0),
    ],
    ("sorted-ascending", "bubble", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("sorted-ascending", "bubble", 2): [(1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0), (1, 0, 0)],
    ("sorted-ascending", "bubble", 50): [
        (49, 0, 0), (49, 0, 0), (49, 0, 0), (49, 0, 0), (49, 0, 0),
    ],
    ("sorted-ascending", "bubble", 300): [
        (299, 0, 0), (299, 0, 0), (299, 0, 0), (299, 0, 0), (299, 0, 0),
    ],
    ("reverse-sorted", "arc", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("reverse-sorted", "arc", 2): [(0, 0, 0), (0, 0, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0)],
    ("reverse-sorted", "arc", 50): [
        (618, 24, 0), (578, 24, 0), (602, 24, 0), (578, 24, 0), (552, 24, 0),
    ],
    ("reverse-sorted", "arc", 300): [
        (20077, 149, 0), (20472, 148, 0), (20403, 149, 0), (19640, 148, 0), (20535, 149, 0),
    ],
    ("reverse-sorted", "enhanced-selection", 1): [
        (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0),
    ],
    ("reverse-sorted", "enhanced-selection", 2): [
        (1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0),
    ],
    ("reverse-sorted", "enhanced-selection", 50): [
        (1225, 25, 0), (1225, 25, 0), (1225, 25, 0), (1225, 25, 0), (1225, 25, 0),
    ],
    ("reverse-sorted", "enhanced-selection", 300): [
        (44850, 150, 0), (44850, 150, 0), (44850, 150, 0), (44850, 150, 0), (44850, 150, 0),
    ],
    ("reverse-sorted", "selection", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("reverse-sorted", "selection", 2): [(1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0)],
    ("reverse-sorted", "selection", 50): [
        (1225, 25, 0), (1225, 25, 0), (1225, 25, 0), (1225, 25, 0), (1225, 25, 0),
    ],
    ("reverse-sorted", "selection", 300): [
        (44850, 150, 0), (44850, 150, 0), (44850, 150, 0), (44850, 150, 0), (44850, 150, 0),
    ],
    ("reverse-sorted", "insertion", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("reverse-sorted", "insertion", 2): [(1, 0, 1), (1, 0, 1), (1, 0, 1), (1, 0, 1), (1, 0, 1)],
    ("reverse-sorted", "insertion", 50): [
        (1225, 0, 1225), (1225, 0, 1225), (1225, 0, 1225), (1225, 0, 1225), (1225, 0, 1225),
    ],
    ("reverse-sorted", "insertion", 300): [
        (44850, 0, 44850), (44850, 0, 44850), (44850, 0, 44850), (44850, 0, 44850), (44850, 0, 44850),
    ],
    ("reverse-sorted", "bubble", 1): [(0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)],
    ("reverse-sorted", "bubble", 2): [(1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0), (1, 1, 0)],
    ("reverse-sorted", "bubble", 50): [
        (1225, 1225, 0), (1225, 1225, 0), (1225, 1225, 0), (1225, 1225, 0), (1225, 1225, 0),
    ],
    ("reverse-sorted", "bubble", 300): [
        (44850, 44850, 0), (44850, 44850, 0), (44850, 44850, 0), (44850, 44850, 0), (44850, 44850, 0),
    ],
}


@pytest.mark.parametrize("distribution,seed", list(GRIDS))
def test_counts_equal_frozen_table(distribution, seed):
    sizes = GRIDS[(distribution, seed)]
    report = run_benchmark(
        ALGORITHMS, sizes, DatasetSpec(distribution, 0, seed), trials=5, warmup=0
    )
    observed: dict[tuple[str, str, int], list[tuple[int, int, int]]] = {}
    for row in report.rows:
        m = row.metrics
        observed.setdefault((distribution, row.algorithm, row.n), []).append(
            (m.comparisons, m.swaps, m.writes)
        )
    expected = {k: v for k, v in FROZEN.items() if k[0] == distribution}
    assert observed == expected
