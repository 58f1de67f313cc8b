"""The mutation runner, tests/run_mutants.py, on entries of its own, and the
registry's snippets against the source."""

import pathlib

import pytest

import run_mutants
from mutants import MUTANTS, Mutant

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "blockposets"


def test_noop_replacement_is_reported_as_a_survivor(capsys):
    chain = next(m for m in MUTANTS if m.file == "topology.py")
    noop = chain._replace(name="no-op", replacement=chain.snippet)
    assert run_mutants.main([noop]) == 1
    out = capsys.readouterr().out
    assert out.startswith("survived")
    assert out.endswith("0 of 1 mutants killed\n")


@pytest.mark.parametrize("text", ["x = 1\n", "x = 2\nx = 2\n"])
def test_snippet_must_occur_exactly_once(tmp_path, text):
    (tmp_path / "blockposets").mkdir()
    (tmp_path / "blockposets" / "m.py").write_text(text)
    with pytest.raises(ValueError, match="snippet occurs"):
        run_mutants.apply(tmp_path, Mutant("m", "m.py", "x = 2", "x = 3", []))


def test_registered_snippets_occur_once_and_name_tests():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (SRC / m.file).read_text().count(m.snippet) == 1, m.name
        assert m.snippet != m.replacement, m.name
        assert m.tests, m.name
