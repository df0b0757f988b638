"""Datasets frozen across commits.

Each entry is the sha256 of every ``generate`` output in one case's grid
of seeds and sizes, so a rewrite of the generators must reproduce every
draw of every distribution exactly: same PRNG calls, same order.
"""

from __future__ import annotations

import hashlib

import pytest

from arcsort.datagen import DEFAULT_VALUE_HI, DEFAULT_VALUE_LO, DatasetSpec, generate

SEEDS = (1, 42, 2014)
SIZES = (0, 1, 9, 50, 500)
WIDE = (DEFAULT_VALUE_LO, DEFAULT_VALUE_HI)
NARROW = (-600, 600)  # 500 distinct draws from 1,201 values take the pool path of sample

# (distribution, distinct, digit_class, (value_lo, value_hi), sizes) -> sha256 of the grid.
# On a wide range, sample draws what randint draws until two draws collide,
# so some distinct and plain grids share a digest; NARROW tells them apart.
FROZEN = {
    ("uniform", False, None, WIDE, SIZES):
        "f3d7d2054bf28c1d56cde66ea49edf6f0473dd39bcdae55be2b7de77be401463",
    ("uniform", True, None, WIDE, SIZES):
        "f3d7d2054bf28c1d56cde66ea49edf6f0473dd39bcdae55be2b7de77be401463",
    ("uniform", False, None, NARROW, SIZES):
        "b3d5601e90ec21eb0cacba2afc429f9268288b49daab38334e738537694022ac",
    ("uniform", True, None, NARROW, SIZES):
        "237cfd3fe5ad7a0f5ab9e07e38a3236b29e80c9bfe7a3e287ff7db5eac5440e6",
    ("with-negatives", False, None, WIDE, SIZES):
        "f3d7d2054bf28c1d56cde66ea49edf6f0473dd39bcdae55be2b7de77be401463",
    ("with-negatives", True, None, WIDE, SIZES):
        "f3d7d2054bf28c1d56cde66ea49edf6f0473dd39bcdae55be2b7de77be401463",
    ("with-negatives", False, None, NARROW, SIZES):
        "b3d5601e90ec21eb0cacba2afc429f9268288b49daab38334e738537694022ac",
    ("with-negatives", True, None, NARROW, SIZES):
        "237cfd3fe5ad7a0f5ab9e07e38a3236b29e80c9bfe7a3e287ff7db5eac5440e6",
    ("one-per-bucket", False, None, WIDE, (0, 1, 7, 19)):
        "aba30584f1cb088e48deb77aa97a88f5df4bc6f4a4b56f8f6fd4d297b30c8b9f",
    ("one-per-bucket", True, None, WIDE, (0, 1, 7, 19)):
        "aba30584f1cb088e48deb77aa97a88f5df4bc6f4a4b56f8f6fd4d297b30c8b9f",
    ("single-bucket", False, 1, WIDE, SIZES):
        "c7df255059c7091405b1e6c48f0325aff35dfa638e95eb41c45931e09a419b89",
    ("single-bucket", True, 1, WIDE, (0, 1, 9)):
        "60ee4648fa937b2b3d1e0dd101679b1b982e98cd7b2c0aec29667fa354eb7e12",
    ("single-bucket", False, 5, WIDE, SIZES):
        "e702ad58bb2ff492d4c7d7545d9879419b2266c58ccd2f08bd6243ed34a44838",
    ("single-bucket", True, 5, WIDE, SIZES):
        "e13afb418380d6c7d45437ef4069f496be1d6660c3d70d9c684e43c446d8ff18",
    ("single-bucket", False, 19, WIDE, SIZES):
        "48522692f472a30b59b1cacbaffc8c77476276ceb7833b128ee27ac81d204e56",
    ("single-bucket", True, 19, WIDE, SIZES):
        "48522692f472a30b59b1cacbaffc8c77476276ceb7833b128ee27ac81d204e56",
    ("sorted-ascending", False, None, WIDE, SIZES):
        "1b6224393278a097f2ce3c4926aa85851b90190d820593989eb094008f94dbdb",
    ("sorted-ascending", True, None, WIDE, SIZES):
        "1b6224393278a097f2ce3c4926aa85851b90190d820593989eb094008f94dbdb",
    ("sorted-ascending", False, None, NARROW, SIZES):
        "f48ae6eec1ed11322fbfafd9e7b89805c0f39dd758c4bd567fdb9437928e23fa",
    ("reverse-sorted", False, None, WIDE, SIZES):
        "15d2c3d039b8ae4f4674e3f23de9365225ea930f84f2953ff0ad41fa8751a9f8",
    ("reverse-sorted", True, None, WIDE, SIZES):
        "15d2c3d039b8ae4f4674e3f23de9365225ea930f84f2953ff0ad41fa8751a9f8",
    ("reverse-sorted", False, None, NARROW, SIZES):
        "31ca86e4c1373737268541af30028f2473c69fc1befb7c74777af387f5a18146",
}


def grid_digest(distribution, distinct, digit_class, value_range, sizes):
    h = hashlib.sha256()
    for seed in SEEDS:
        for n in sizes:
            spec = DatasetSpec(distribution, n, seed, *value_range, digit_class, distinct)
            h.update(f"{seed} {n}:{','.join(map(str, generate(spec)))}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(FROZEN), ids=lambda c: "-".join(map(str, c[:4])).replace(" ", ""))
def test_datasets_equal_frozen_digest(case):
    assert grid_digest(*case) == FROZEN[case]
