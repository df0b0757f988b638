"""What each command loads, and the package surface that loads the rest on demand."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import arcsort
from arcsort import bench, datagen, sorts
from arcsort.cli import main

SRC = str(Path(arcsort.__file__).resolve().parent.parent)
DEFINING_MODULES = [sorts, datagen, bench]

# Modules the sort path has no use for: bench and datagen with the heavy
# standard library they pull in, the argparse front end with what it loads,
# ctypes, which only a bubble sort needs, to load the compiled kernels, and
# hashlib, whose OpenSSL would add 3.7 MB to every process that loads it.
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
}


def python(*args: str, stdin: bytes = b"") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, env=env)


def imported(*args: str, stdin: bytes = b"") -> set[str]:
    """Every module a fresh interpreter imports while running ``args``."""
    proc = python("-X", "importtime", *args, stdin=stdin)
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
    assert sort_loads_off_path("--algo", "arc", "-", stdin=b"349\n34\n-72\n") == set()


def test_sort_of_a_file_with_metrics_loads_only_the_sort_path(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"349\n34\n-72\n")
    assert sort_loads_off_path("--algo", "insertion", "--metrics", str(path)) == set()


def test_sort_command_loads_three_package_modules():
    loaded = imported("-m", "arcsort", "sort", "--algo", "arc", "-", stdin=b"349\n34\n-72\n")
    package = {m for m in loaded if m == "arcsort" or m.startswith("arcsort.")}
    assert package == {"arcsort", "arcsort.cli", "arcsort.sorts"}


def test_cli_module_run_as_a_script_only_imports_itself():
    proc = python("-m", "arcsort.cli", "gen", "--dist", "bogus", "--n", "3", "--seed", "1", "-o", "-")
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
    proc = python("-c", code)
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
