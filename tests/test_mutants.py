"""Each committed mutant's old text occurs exactly once in src/nptcert; the
full kill run is `python tests/mutants.py` (see its docstring)."""

import pytest

from mutants import MUTANTS, occurrences


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert occurrences(mutant) == 1
    assert mutant.new != mutant.old and mutant.tests
