"""What each command loads, and the package surface that loads the rest on demand."""

from __future__ import annotations

import itertools

import pytest

import arcsort
from arcsort import bench, datagen, sorts
from arcsort.cli import main
from backends import needs_cc, python

DEFINING_MODULES = [sorts, datagen, bench]
PURE = next(name for name, sort in arcsort.ALGORITHMS.items() if not sort.compiled)

# Modules the sort path has no use for: bench and datagen with the heavy
# standard library they pull in, the argparse front end with what it loads,
# ctypes, which only a sort with a compiled twin needs, to load the compiled
# kernels once its process has sorted enough keys, hashlib, whose OpenSSL
# would add 3.7 MB to every process that loads it, and numpy, which no part
# of the package uses.
NOT_ON_SORT_PATH = {
    "arcsort.bench",
    "arcsort.datagen",
    "arcsort.commands",
    "statistics",
    "dataclasses",
    "inspect",
    "argparse",
    "gettext",
    "locale",
    "ctypes",
    "hashlib",
    "numpy",
}


def imported(*args: str, stdin: bytes = b"") -> set[str]:
    """Every module a fresh interpreter imports while running ``args``."""
    proc = python("-X", "importtime", *args, input=stdin, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.decode().splitlines()
    return {
        line.rpartition("|")[2].strip()
        for line in lines
        if line.startswith("import time:") and "|" in line
    }


def sort_loads_off_path(*args: str, stdin: bytes = b"") -> set[str]:
    """The modules of NOT_ON_SORT_PATH that ``arcsort sort *args`` imports."""
    bare = imported("-c", "pass")
    loaded = imported("-m", "arcsort", "sort", *args, stdin=stdin)
    assert "arcsort.sorts" in loaded  # the probe sees the package's own imports
    return (loaded - bare) & NOT_ON_SORT_PATH


def test_sort_command_loads_only_the_sort_path():
    assert sort_loads_off_path("--algo", PURE, "-", stdin=b"349\n34\n-72\n") == set()


def test_sort_of_a_file_with_metrics_loads_only_the_sort_path(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"349\n34\n-72\n")
    assert sort_loads_off_path("--algo", PURE, "--metrics", str(path)) == set()


def test_sort_command_loads_three_package_modules():
    loaded = imported("-m", "arcsort", "sort", "--algo", PURE, "-", stdin=b"349\n34\n-72\n")
    package = {m for m in loaded if m == "arcsort" or m.startswith("arcsort.")}
    assert package == {"arcsort", "arcsort.cli", "arcsort.sorts"}


COMPILED = [name for name, sort in arcsort.ALGORITHMS.items() if sort.compiled]
# the fewest keys whose n(n-1)/2 alone reaches the load charge
LOADING_N = next(n for n in itertools.count(2) if n * (n - 1) // 2 >= sorts.LOAD_AT)


@pytest.mark.parametrize("algo", COMPILED)
def test_a_small_compiled_sort_command_loads_neither_the_loader_nor_ctypes(algo):
    # three keys charge 3, far below the load charge: the sort runs pure
    stdin = b"349\n34\n-72\n"
    assert sort_loads_off_path("--algo", algo, "-", stdin=stdin) == set()
    loaded = imported("-m", "arcsort", "sort", "--algo", algo, "-", stdin=stdin)
    package = {m for m in loaded if m == "arcsort" or m.startswith("arcsort.")}
    assert package == {"arcsort", "arcsort.cli", "arcsort.sorts"}
    assert {"ctypes", "array"} & loaded == set()


@needs_cc  # without a library to call, the sort never imports array
@pytest.mark.parametrize("algo", COMPILED)
def test_a_compiled_sort_command_over_the_load_charge_loads_ctypes(algo):
    # ctypes and array, and still no hashlib, argparse, bench or datagen
    stdin = "".join(f"{v}\n" for v in range(LOADING_N, 0, -1)).encode()
    assert sort_loads_off_path("--algo", algo, "-", stdin=stdin) == {"ctypes"}
    loaded = imported("-m", "arcsort", "sort", "--algo", algo, "-", stdin=stdin)
    assert {"arcsort._compiled", "array"} <= loaded


def test_a_small_sort_without_cc_runs_pure_and_leaves_no_cache(tmp_path):
    args = ("-m", "arcsort", "sort", "--algo", "arc", "--metrics", "-")
    stdin = b"349\n34\n-72\n22\n14\n-1\n"
    want = python(*args, input=stdin, capture_output=True)
    assert want.returncode == 0, want.stderr
    # no cc on PATH and an empty cache: the loader would spawn a cc that is not there
    empty = {"PATH": str(tmp_path), "XDG_CACHE_HOME": str(tmp_path)}
    proc = python("-X", "importtime", *args, input=stdin, capture_output=True, env=empty)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.decode().splitlines()
    assert proc.stdout == want.stdout
    assert [line for line in lines if not line.startswith("import time:")] == want.stderr.decode().splitlines()
    assert not any(line.rpartition("|")[2].strip() == "ctypes" for line in lines)
    assert list(tmp_path.iterdir()) == []


def test_the_loader_imports_no_typing():
    # -S: on some hosts a site-packages .pth imports typing before any test code runs
    code = "import sys, arcsort._compiled; print(sorted({'typing', 're'} & set(sys.modules)))"
    proc = python("-S", "-c", code, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"[]\n", b"")


def test_cli_module_run_as_a_script_only_imports_itself():
    argv = ["gen", "--dist", "bogus", "--n", "3", "--seed", "1", "-o", "-"]
    proc = python("-m", "arcsort.cli", *argv, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")


def test_bench_and_datagen_load_on_first_use():
    code = (
        "import sys, arcsort\n"
        "loaded = lambda: {'arcsort.bench', 'arcsort.datagen'} & set(sys.modules)\n"
        "assert loaded() == set(), loaded()\n"
        "arcsort.DISTRIBUTIONS\n"
        "assert loaded() == {'arcsort.datagen'}, loaded()\n"
        "arcsort.generate\n"
        "assert loaded() == {'arcsort.datagen'}, loaded()\n"
        "arcsort.run_benchmark\n"
        "assert loaded() == {'arcsort.bench', 'arcsort.datagen'}, loaded()\n"
    )
    proc = python("-c", code, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("name", arcsort.__all__)
def test_every_public_name_is_its_defining_modules_object(name):
    value = getattr(arcsort, name)
    homes = [m for m in DEFINING_MODULES if hasattr(m, name)]
    assert homes
    assert all(getattr(m, name) is value for m in homes)
    assert vars(arcsort)[name] is value  # resolved once, then a plain attribute


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from arcsort import *", namespace)
    assert set(arcsort.__all__) <= set(namespace)
    assert namespace["run_benchmark"] is bench.run_benchmark
    assert namespace["generate"] is datagen.generate


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        arcsort.no_such_name


@pytest.mark.parametrize(
    "command, names",
    [
        ("sort", list(arcsort.ALGORITHMS)),
        ("gen", list(arcsort.DISTRIBUTIONS)),
        ("bench", [*arcsort.ALGORITHMS, *arcsort.DISTRIBUTIONS]),
    ],
)
def test_help_lists_every_algorithm_and_distribution(monkeypatch, capsys, command, names):
    monkeypatch.setenv("COLUMNS", "300")  # keep hyphenated names on one line
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for name in names:
        assert name in out
