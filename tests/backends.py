"""Both backends of the compiled sorts, for the tests.

A public sort with ``.compiled`` set runs its C twin wherever
``arcsort._compiled.kernels`` can build and load ``_ckernels.c``.
``no_compiler`` fakes the observation that makes it run its pure path
instead, as on a host with no ``cc``: an empty ``PATH`` and an empty
cache directory.  ``COMPILED`` lists those sorts, ``ORACLES`` the index
loop of ``tests/oracles.py`` that each must equal, and ``BACKENDS`` the
two ids a test parametrized over both backends takes; ``on`` gives a
sort on one of them.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager

import pytest

from arcsort import ALGORITHMS
from arcsort._compiled import kernels
from oracles import reference_arc, reference_bubble

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")

COMPILED = [sort for sort in ALGORITHMS.values() if sort.compiled]
# each compiled sort's name -> (sorted copy, comparisons, swaps) of its index loop
ORACLES = {"arc_sort": reference_arc, "bubble_sort": reference_bubble}
BACKENDS = ["pure", pytest.param("c", marks=needs_cc)]


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


def pure(sort):
    """``sort`` where no compiler can be found: its pure path runs."""

    def run(*args, **kwargs):
        with no_compiler():
            return sort(*args, **kwargs)

    run.__name__ = f"{sort.__name__}_pure"  # the id of a test parametrized over it
    return run


def on(backend: str, sort):
    """``sort`` on ``backend``, one of BACKENDS; "c" requires the twin to load."""
    if backend == "pure":
        return pure(sort)
    assert kernels() is not None  # a compiler is on PATH: the C twin must load
    return sort
