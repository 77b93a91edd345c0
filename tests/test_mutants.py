from mutants import MUTANTS, SRC


def test_every_mutant_text_occurs_once():
    # a kernel edit that removes a mutant's text voids its certificate;
    # python3 -m tests.mutants runs the mutants themselves
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (SRC / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.tests, mutant.name
