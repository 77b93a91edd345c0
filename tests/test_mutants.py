import ast

from mutants import MUTANTS, ROOT, SRC


def test_every_mutant_text_occurs_once():
    # a kernel edit that removes a mutant's text voids its certificate;
    # python3 -m tests.mutants runs the mutants themselves
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert (SRC / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.tests, mutant.name


def test_every_listed_test_exists():
    # a renamed or deleted test would void a certificate as silently
    for node in {test for mutant in MUTANTS for test in mutant.tests}:
        path, name = node.split("::")
        tree = ast.parse((ROOT / path).read_text())
        functions = {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}
        assert name in functions, node
