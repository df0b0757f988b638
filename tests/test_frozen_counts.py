"""Operation counts frozen across commits.

Each entry is ``(comparisons, swaps, writes)`` per trial of
:func:`arcsort.bench.run_benchmark` with the ``arcsort bench`` defaults
(5 trials, dataset seeds from :func:`arcsort.bench.derive_seed`), the same
numbers ``arcsort bench`` prints in its count columns.  A rewrite of any
sort must reproduce them exactly, ties included.
"""

from __future__ import annotations

import pytest

from arcsort.bench import ALGORITHMS, run_benchmark
from arcsort.datagen import DatasetSpec

GRIDS = {
    ("uniform", 11): (0, 1, 2, 50, 300),
    ("with-negatives", 3): (1, 7, 200),
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
