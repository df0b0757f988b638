"""The mutant list of ``tests/mutants.py`` still names code and tests that exist."""

import subprocess
import sys

from mutants import MUTANTS, ROOT, occurrences


def test_every_mutant_old_text_occurs_once():
    counts = {m.name: occurrences(m) for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}


def test_every_test_a_mutant_names_is_collected():
    # a renamed test would otherwise fail only the slow mutant run, as a usage error
    named = {t for m in MUTANTS for t in m.tests}
    files = sorted({t.partition("::")[0] for t in named})
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"]
    proc = subprocess.run([*command, *files], cwd=ROOT, capture_output=True, text=True)
    collected = set(proc.stdout.splitlines())
    assert {t for t in named if not any(c == t or c.startswith(f"{t}[") for c in collected)} == set()
