"""The entries of tools/mutants.py apply to the tree as it stands."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import mutants  # noqa: E402


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    text = (mutants.ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.expected in ("killed", "equivalent") and mutant.reason


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_apply_refuses_an_ambiguous_text():
    m = mutants.Mutant("x", "f.py", "a", "b", "killed", "because")
    assert mutants.apply("xay", m) == "xby"
    for text in ("xy", "aa"):
        with pytest.raises(ValueError, match="not once"):
            mutants.apply(text, m)
