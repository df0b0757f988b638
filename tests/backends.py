"""Both backends of the compiled sorts, for the tests.

``bubble_sort`` runs its C twin wherever ``arcsort._compiled.kernels``
can build and load ``_ckernels.c``.  ``no_compiler`` fakes the
observation that makes it run the pure kernel instead, as on a host with
no ``cc``: an empty ``PATH`` and an empty cache directory.
"""

from __future__ import annotations

import shutil
import tempfile
from contextlib import contextmanager

import pytest

from arcsort import bubble_sort
from arcsort._compiled import kernels

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


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


def bubble_sort_pure(data, metrics=None):
    """``bubble_sort`` where no compiler can be found: its pure kernel runs."""
    with no_compiler():
        return bubble_sort(data, metrics)
