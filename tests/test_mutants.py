"""The mutant list stays replayable: every old text still occurs once in
its file, every mutant changes it, and every named test exists.  The
mutants themselves run outside tier-1, through tests/run_mutants.py."""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=range(len(MUTANTS)))
def test_each_mutant_applies_once_and_names_a_test(mutant):
    text = (ROOT / "src" / "newton_monodromy" / mutant.file).read_text()
    assert text.count(mutant.old) == 1, mutant.old
    assert mutant.new != mutant.old
    path, _, name = mutant.test.partition("::")
    source = (ROOT / path).read_text()
    if name:
        assert re.search(rf"^def {re.escape(name.split('[')[0])}\(", source, re.M), name


def test_the_list_holds_both_kinds_without_repeats():
    """The list holds both kinds, and no two entries are the same change."""
    assert any(m.equivalent for m in MUTANTS) and not all(m.equivalent for m in MUTANTS)
    assert len({(m.file, m.old, m.new) for m in MUTANTS}) == len(MUTANTS)
