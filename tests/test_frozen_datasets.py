"""Datasets frozen across commits.

Each entry is the sha256 of every ``generate`` output in one case's grid
of seeds and sizes, so a rewrite of the generators must reproduce every
draw of every distribution exactly: same PRNG calls, same order.  The
grids were frozen while the generators still drew through
``random.Random``'s ``randint``, ``sample`` and ``shuffle``.
"""

from __future__ import annotations

import hashlib

import pytest

from arcsort.datagen import DEFAULT_VALUE_HI, DEFAULT_VALUE_LO, DatasetSpec, generate
from arcsort.sorts import INT64_MAX, INT64_MIN

SEEDS = (1, 42, 2014)
SIZES = (0, 1, 9, 50, 500)
WIDE = (DEFAULT_VALUE_LO, DEFAULT_VALUE_HI)
NARROW = (-600, 600)  # 500 distinct draws from 1,201 values take the pool path of sample
# sample draws n of a population of up to 21 values (n <= 5) or up to 277
# (43 <= n <= 85) by the pool path, and of a larger one by rejection
SMALL = (0, 1, 2, 3, 4, 5)
MID = (43, 50, 85)

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
    # the bounds of sample's two paths: a population of exactly its pool
    # bound, and one value more
    ("uniform", True, None, (-10, 10), SMALL):
        "d15f262b73c1029faf62b2cf3959c8ce7d7a605ef76a380fe132e460e6f1a824",
    ("uniform", True, None, (-10, 11), SMALL):
        "51e3525c59dd9d3abf34019ecb83b9224db174d1cff9c23522933a3979f009d1",
    ("uniform", True, None, (1, 277), MID):
        "c41d4061f28218141328040cbad4818336805e4713dbc82daeab0ff5713d4a68",
    ("uniform", True, None, (1, 278), MID):
        "fe370b5ffdde539de89eecf2f3386f72efb56f65917148e69c63162f1c275380",
    # a range of one value: each draw is one bit, drawn again until it reads 0
    ("uniform", False, None, (7, 7), SIZES):
        "c86a35ad7f002a023d6307d1c23f357531cec4c99172d0ac070de84bb6f4f6bd",
    ("uniform", True, None, (7, 7), (0, 1)):
        "131395aa63e644d1f472d7620c172d5b38b958497c240902d173d0b303b50feb",
    # a power-of-two width: one bit more than the width needs, so half the draws are redrawn
    ("uniform", False, None, (-512, 511), SIZES):
        "35f998295663a14d1bf80792e0ee5b33bfcfb7f557df4fd48ce0a1c649d216c8",
    ("uniform", True, None, (-512, 511), SIZES):
        "d00c3776f95ba86f7e48933d7c9bb5641a03e9e823b2251573244b2aa4f92866",
    # the whole int64 range, 65 bits a draw, and the widest range drawn without replacement
    ("uniform", False, None, (INT64_MIN, INT64_MAX), SIZES):
        "28b5faa27286161b7d5f8c11b7d06a5bb315f228ab04cecf937c50d0179a4d39",
    ("sorted-ascending", True, None, (1, INT64_MAX), SIZES):
        "84329b6d19fde508ccaed237084f1ff6be88efa42273d1e12acefd0ee192c3c1",
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
