"""Which backend runs, and the loader that builds the C twins.

Where the twin cannot be built or loaded, every sort runs its pure path
and is still its index loop on ``backends.INPUTS``.  A process loads the
library at the call that brings its pure calls' n(n-1)/2 charges to
``_compiled.LOAD_AT``, and runs C at every size once ``kernels`` has run.
The loader builds once, caches the build in the user cache directory
(never one relative to the working directory) and reuses it; a failed
build or load leaves nothing there.  A C call that cannot allocate raises
``MemoryError`` and sorts nothing.  That each backend is its sort's index
loop is ``test_properties.py::test_every_backend_equals_the_index_loop``.
"""

from __future__ import annotations

import os
from array import array
from ctypes import c_int64, c_void_p
from pathlib import Path
from types import SimpleNamespace

import pytest

from arcsort import ALGORITHMS, SortMetrics, arc_sort
from arcsort import _compiled
from arcsort._compiled import kernels
from backends import INPUTS, assert_is_the_index_loop, needs_cc, no_compiler


@pytest.fixture
def fresh_loader():
    """Make ``kernels`` observe the test's environment, and the real one after."""
    kernels.cache_clear()
    yield
    kernels.cache_clear()


@pytest.fixture
def unloaded(fresh_loader, monkeypatch):
    """The load rule's state in a process that has not loaded the library yet."""
    monkeypatch.setattr(_compiled, "_loaded", False)
    monkeypatch.setattr(_compiled, "_charged", 0)


@needs_cc
@pytest.mark.parametrize("name", [name for name, sort in ALGORITHMS.items() if sort.compiled])
def test_small_calls_load_the_library_once_their_charges_reach_load_at(unloaded, name):
    values = list(range(40, 0, -1))
    charge = len(values) * (len(values) - 1) // 2
    pure_calls = (_compiled.LOAD_AT - 1) // charge  # the most whose charges sum below it
    for _ in range(pure_calls):
        assert ALGORITHMS[name](list(values)) == sorted(values)
    assert kernels.cache_info().currsize == 0
    assert ALGORITHMS[name](list(values)) == sorted(values)
    assert kernels.cache_info().currsize == 1


@needs_cc
def test_after_a_direct_load_every_call_runs_c(unloaded):
    pure = SortMetrics()
    assert _compiled.run("arc_sort", [3, 1, 2], pure) is None  # charged 3: pure
    assert pure == SortMetrics()
    assert kernels() is not None
    metrics = SortMetrics()
    assert list(_compiled.run("arc_sort", [3, 1, 2], metrics)) == [1, 2, 3]
    assert metrics == SortMetrics(3, 2)


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
    for name, sort in ALGORITHMS.items():
        for values in INPUTS:
            assert_is_the_index_loop(sort, name, values)
    # a failed build or load leaves nothing in the cache, so the next process builds again
    assert list((tmp_path / "cache").rglob("*")) == []


def test_no_compiler_leaves_the_cache_home_empty():
    with no_compiler():
        assert kernels() is None
        assert os.listdir(os.environ["XDG_CACHE_HOME"]) == []


@needs_cc
def test_a_relative_cache_home_is_ignored(fresh_loader, monkeypatch, tmp_path):
    # as the XDG spec asks: else each working directory would get a cache, and a build
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
    monkeypatch.chdir(tmp_path)
    assert kernels() is not None
    assert [p.name for p in tmp_path.iterdir()] == ["home"]
    (built,) = (tmp_path / "home" / ".cache" / "arcsort").iterdir()
    assert built.name.startswith("_ckernels-")


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


@needs_cc
def test_a_failed_allocation_raises_memory_error_and_sorts_nothing(monkeypatch):
    keys = array("q", [3, 1, 2])
    counts = array("q", [0, 0])
    # a scratch buffer of 2**63 bytes: more than any address space holds
    a, c = (c_void_p(buf.buffer_info()[0]) for buf in (keys, counts))
    kernels().arc_sort(a, c_int64(2**60), c)
    assert counts[0] == -1
    assert list(keys) == [3, 1, 2]

    def no_memory(a, n, counts):
        c_int64.from_address(counts).value = -1

    monkeypatch.setattr(_compiled, "kernels", lambda: SimpleNamespace(arc_sort=no_memory))
    values = [3, 1, 2]
    metrics = SortMetrics()
    with pytest.raises(MemoryError, match="arc_sort"):
        arc_sort(values, metrics)  # no fallback to the pure path after the failure
    assert values == [3, 1, 2]
    assert metrics == SortMetrics()
