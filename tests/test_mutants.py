"""The mutant list of ``tests/mutants.py`` still names code that exists."""

from mutants import MUTANTS, occurrences


def test_every_mutant_old_text_occurs_once():
    counts = {m.name: occurrences(m) for m in MUTANTS}
    assert {name: n for name, n in counts.items() if n != 1} == {}
