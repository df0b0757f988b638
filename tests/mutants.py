"""Mutant check: every listed mutant of the library must fail its tests.

Each sort has one definition, so the index loops in ``tests/oracles.py``
and the tests built on them are the only guard on it.  This script shows
that they catch plausible slips in the kernels, the bucketing, the key
rule and the CLI's integer parser, in the compiled bubble and arc sorts
of ``_ckernels.c`` with their write-back, and in the loader, its load
rule and the bench label that choose the backend.  Each mutant is one
exact text in one file, replaced by another, and the tests that must
fail.  For each mutant, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the mutant there
and runs the named tests with ``pytest -x -q``; the mutant is killed if
they fail.  The tests get
a cache directory of their own, where each C mutant is built once.  The
unmutated copy must pass the same tests first.  An old text that does not occur
exactly once is an error, so a refactor that makes a mutant stale fails
loudly instead of passing vacuously; ``tests/test_mutants.py`` applies
the same rule in tier-1, and checks there that every named test exists.

Run it from the root of the repository; it exits 0 only if every mutant
is killed:

    python3 tests/mutants.py

It is not named ``test_*``, so tier-1 does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SORTS = "src/arcsort/sorts.py"
CLI = "src/arcsort/cli.py"
CKERNELS = "src/arcsort/_ckernels.c"
COMPILED = "src/arcsort/_compiled.py"
BENCH = "src/arcsort/bench.py"
PROPS = "tests/test_properties.py"
PARITY = f"{PROPS}::test_every_backend_equals_the_index_loop"


def parity(sort: str) -> tuple[str, ...]:
    """The parity ids of ``sort``: its block examples first, so that under -x a
    kill there stops the run before hypothesis spends its time shrinking a failure."""
    return (*(f"{PARITY}_on_fixed_inputs[block{i}-{sort}]" for i in range(5)), f"{PARITY}[{sort}]")


SELECTION = parity("selection_sort")
ENHANCED = (*parity("enhanced_selection_sort"), *parity("arc_sort_pure"))
BUBBLE = (
    f"{PROPS}::test_bubble_equals_index_loop_reference",
    f"{PROPS}::test_bubble_is_the_index_loop_at_oracle_mix_sizes",
)
INSERTION = parity("insertion_sort")
COMPILED_BUBBLE = (
    f"{PARITY}[bubble_sort]",
    f"{PARITY}_at_oracle_mix_sizes[turtle-512-bubble_sort]",
)
# the fixed inputs first: under -x a kill there stops the run before
# hypothesis spends its time shrinking a failure
COMPILED_ARC = (
    f"{PARITY}_at_block_boundaries[131-lane0-ties-arc_sort]",
    f"{PARITY}[arc_sort]",
    f"{PARITY}_at_oracle_mix_sizes[small-range-200-arc_sort]",
    f"{PARITY}_at_oracle_mix_sizes[small-range-512-arc_sort]",
)
LOAD_RULE = "tests/test_dispatch.py::test_small_calls_load_the_library_once_their_charges_reach_load_at[arc]"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("selection: promote on <=", SORTS,
           "if v < best_val:", "if v <= best_val:", SELECTION),
    Mutant("selection: slot searched in the first promotion's block", SORTS,
           "if v < best_val:\n                    best_val = v\n                    hit = blk",
           "if v < best_val:\n                    best_val = v\n                    hit = hit or blk",
           SELECTION),
    Mutant("selection: empty head block left in place", SORTS,
           "            del blocks[0]\n        best_val = top\n",
           "            pass\n        best_val = top\n", SELECTION),
    Mutant("selection: block slice one key short", SORTS,
           "w = list(data)\n    blocks = [w[i:i + _BLOCK]",
           "w = list(data)\n    blocks = [w[i:i + _BLOCK - 1]", SELECTION),
    Mutant("enhanced-selection: threshold top, not top - 1", SORTS,
           "best_val = top - 1", "best_val = top", ENHANCED),
    Mutant("enhanced-selection: promote on >=", SORTS,
           "if v > best_val:", "if v >= best_val:", ENHANCED),
    Mutant("enhanced-selection: slot searched in the first promotion's block", SORTS,
           "if v > best_val:\n                    best_val = v\n                    hit = blk",
           "if v > best_val:\n                    best_val = v\n                    hit = hit or blk",
           ENHANCED),
    Mutant("enhanced-selection: threshold kept when nothing is promoted", SORTS,
           "        if hit is None:\n            best_val = top\n        else:\n",
           "        if hit is None:\n            pass\n        else:\n", ENHANCED),
    Mutant("enhanced-selection: empty head block left in place", SORTS,
           "            del blocks[0]\n        best_val = top - 1\n",
           "            pass\n        best_val = top - 1\n", ENHANCED),
    Mutant("enhanced-selection: block slice one key short", SORTS,
           "w.reverse()\n    blocks = [w[i:i + _BLOCK]",
           "w.reverse()\n    blocks = [w[i:i + _BLOCK - 1]", ENHANCED),
    Mutant("bubble: stop when records >= limit", SORTS,
           "if records > limit:", "if records >= limit:", BUBBLE),
    Mutant("bubble: one swap too few a pass", SORTS,
           "swaps += limit + 1 - records", "swaps += limit - records", BUBBLE),
    Mutant("bubble: record stored at s - done", SORTS,
           "data[s - shift] = x", "data[s - done] = x", BUBBLE),
    Mutant("compiled bubble: swap on >=", CKERNELS,
           "swaps += x > y;", "swaps += x >= y;", COMPILED_BUBBLE),
    Mutant("compiled bubble: no early exit", CKERNELS,
           "if (swaps == before)\n            break;", "", COMPILED_BUBBLE),
    Mutant("compiled bubble: a pass one comparison short", CKERNELS,
           "j < limit;", "j + 1 < limit;", COMPILED_BUBBLE),
    Mutant("compiled arc: a power of ten filed with the keys below it", CKERNELS,
           "x >= pow10[b]", "x > pow10[b]", COMPILED_ARC),
    Mutant("compiled arc: max-select takes a tie on >", CKERNELS,
           "if (a[i] >= x) {", "if (a[i] > x) {", COMPILED_ARC),
    Mutant("compiled arc: scatter reverses each bucket's arrival order", CKERNELS,
           "for (int64_t i = 0; i < n; i++)\n            out[",
           "for (int64_t i = n - 1; i >= 0; i--)\n            out[", COMPILED_ARC),
    Mutant("compiled arc: a swap counted when the slot did not move", CKERNELS,
           "            swaps++;\n        }\n    }\n    return swaps;",
           "        }\n        swaps++;\n    }\n    return swaps;", COMPILED_ARC),
    Mutant("compiled arc: the slot searched forward in the hit block", CKERNELS,
           "best = hit - 1;\n            while (a[best] != x)\n                best--;",
           "best = hit - BLOCK;\n            while (a[best] != x)\n                best++;",
           COMPILED_ARC),
    Mutant("compiled arc: the tail stops one key short", CKERNELS,
           "for (; i < last; i++) {", "for (; i + 1 < last; i++) {", COMPILED_ARC),
    Mutant("compiled arc: one lane's maximum dropped from the merge", CKERNELS,
           "            m0 = m1 > m0 ? m1 : m0;\n", "", COMPILED_ARC),
    Mutant("compiled arc: a block raises x on >", CKERNELS,
           "if (m0 >= x) {", "if (m0 > x) {", COMPILED_ARC),
    Mutant("compiled arc: a failed allocation falls back to the pure path", COMPILED,
           "        raise MemoryError(", "        return None\n        raise MemoryError(",
           ("tests/test_dispatch.py::test_a_failed_allocation_raises_memory_error_and_sorts_nothing",)),
    Mutant("compiled bubble: written back through clear() and extend()", SORTS,
           "                    for i, x in enumerate(keys):\n                        data[i] = x\n",
           "                    data.clear()\n                    data.extend(keys)\n",
           ("tests/test_sorts.py::test_sorts_a_deque_as_they_sort_a_list[bubble_sort]",)),
    Mutant("compiled bubble: the last key not written back", SORTS,
           "data[:] = keys.tolist()", "data[:-1] = keys.tolist()[:-1]", COMPILED_BUBBLE),
    Mutant("loader: a fresh build published before it loads", COMPILED,
           "lib = ctypes.CDLL(built)\n                    os.replace(built, path)",
           "os.replace(built, path)\n                    lib = ctypes.CDLL(path)",
           ("tests/test_dispatch.py::test_compiled_sorts_fall_back_to_their_pure_paths[load_fails]",)),
    Mutant("loader: a failed build leaves the cache directory it made", COMPILED,
           "os.rmdir(cache_dir)", "pass",
           ("tests/test_dispatch.py::test_no_compiler_leaves_the_cache_home_empty",)),
    Mutant("load rule: the library loads at the first call", COMPILED,
           "LOAD_AT = 150_000", "LOAD_AT = 0",
           ("tests/test_imports.py::test_a_small_compiled_sort_command_loads_the_loader_but_not_ctypes[arc]",
            LOAD_RULE)),
    Mutant("load rule: the charge never opens the gate", COMPILED,
           "if _charged < LOAD_AT:", "if True:",
           ("tests/test_imports.py::test_a_compiled_sort_command_over_the_load_charge_loads_ctypes[arc]",
            LOAD_RULE)),
    Mutant("load rule: each call charged alone, not summed", COMPILED,
           "_charged += len(keys)", "_charged = len(keys)", (LOAD_RULE,)),
    Mutant("load rule: kernels() leaves the gate shut", COMPILED,
           "_loaded = True", "_loaded = False",
           ("tests/test_dispatch.py::test_after_a_direct_load_every_call_runs_c",)),
    Mutant("bench: the kernels loaded before the datasets are generated", BENCH,
           "    datasets = {n: [generate(replace(spec_template, n=n, seed=s)) for s in seeds[n]] for n in sizes}\n"
           "    # a compiled twin is built or loaded here: after the datasets, so a bad\n"
           "    # spec builds nothing, and not inside the first timed sort; getattr,\n"
           "    # because ALGORITHMS may hold any callable\n"
           "    compiled = any(getattr(ALGORITHMS[a], \"compiled\", False) for a in names)\n"
           "    lib = kernels() if compiled else None\n",
           "    compiled = any(getattr(ALGORITHMS[a], \"compiled\", False) for a in names)\n"
           "    lib = kernels() if compiled else None\n"
           "    datasets = {n: [generate(replace(spec_template, n=n, seed=s)) for s in seeds[n]] for n in sizes}\n",
           ("tests/test_bench.py::test_a_refused_spec_loads_no_kernels",)),
    Mutant("bench: the backend label ignores the grid", BENCH,
           "lib = kernels() if compiled else None", "lib = kernels()",
           ("tests/test_bench.py::test_a_grid_without_a_compiled_sort_is_pure_and_builds_nothing",)),
    Mutant("insertion: bisect_left", SORTS,
           "pos = bisect_right(data, key, 0, i - 1)",
           'pos = __import__("bisect").bisect_left(data, key, 0, i - 1)', INSERTION),
    Mutant("insertion: the test that stopped the scan not counted", SORTS,
           "comparisons += i - pos + (pos > 0)", "comparisons += i - pos", INSERTION),
    Mutant("distribute: trailing empty buckets kept", SORTS,
           "buckets.pop()", "break",
           ("tests/test_buckets.py::test_distribute_golden",
            f"{PROPS}::test_distribute_invariants")),
    Mutant("count_digits: 0 filed in bucket 1", SORTS,
           "if x > 0 else 0", "if x >= 0 else 0",
           ("tests/test_buckets.py::test_count_digits",)),
    Mutant("check_keys: bool accepted", SORTS,
           "if isinstance(x, bool) or not hasattr", "if not hasattr",
           ("tests/test_sorts.py::test_classic_sorts_reject_non_integer_keys",
            "tests/test_buckets.py::test_distribute_rejects_non_integer_keys")),
    Mutant("check_keys: a key past the digit limit printed, not named by its size", SORTS,
           "            try:\n                shown = str(x)\n            except ValueError:"
           "  # more digits than int-to-str conversion allows\n"
           "                shown = f\"a {x.bit_length()}-bit {'negative ' if x < 0 else ''}key\"\n",
           "            shown = str(x)\n",
           ("tests/test_sorts.py::test_keys_past_the_digit_limit_are_named_by_their_size",)),
    Mutant("arc_sort: buckets sorted by the public sort, keys checked again", SORTS,
           "enhanced_selection_sort.kernel(bucket, metrics)", "enhanced_selection_sort(bucket, metrics)",
           ("tests/test_sorts.py::test_classic_sorts_check_keys_once[arc_sort_pure]",)),
    Mutant("_read_lines: values cut to 19 digits", CLI,
           "digits[:20]", "digits[:19]",
           ("tests/test_cli.py::test_sort_file",)),
]


def occurrences(m: Mutant) -> int:
    """How often the mutant's old text occurs in its file; anything but 1 is stale."""
    return (ROOT / m.file).read_text().count(m.old)


def run_tests(tree: Path, tests: tuple[str, ...]) -> int:
    """Exit code of ``pytest -x -q`` on ``tests`` inside ``tree``, with ``tree/cache``
    as the cache directory, so no mutant's build lands in the user's."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = dict(os.environ, XDG_CACHE_HOME=str(tree / "cache"))
    return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    started = time.monotonic()
    for m in MUTANTS:
        count = occurrences(m)
        if count != 1:
            print(f"stale mutant {m.name!r}: its old text occurs {count} times in {m.file}")
            return 2
    with tempfile.TemporaryDirectory(prefix="arcsort-mutants-") as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", tree / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(tree, every_test) != 0:
            print("the unmutated tree fails the named tests; no mutant can be judged")
            return 2
        survivors = []
        for m in MUTANTS:
            path = tree / m.file
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            t0 = time.monotonic()
            code = run_tests(tree, m.tests)
            path.write_text(original)
            killed = code == 1  # 1: tests ran and failed; others are usage or collection errors
            print(f"{'killed' if killed else 'SURVIVED':8} {time.monotonic() - t0:5.1f} s  {m.name}"
                  + ("" if killed else f" (pytest exit {code})"), flush=True)
            if not killed:
                survivors.append(m.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed"
          f" in {time.monotonic() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
