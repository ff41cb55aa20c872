"""The n-gram, vector-space and similarity stages depend on no other stage.

Preprocessing, which owns what a token can be, imports no package module,
and no module imports from ``__future__``.
"""

import ast
from pathlib import Path

import pytest

import essayscore

PACKAGE = Path(essayscore.__file__).parent


def package_imports(name):
    """The package modules that ``name``.py imports, relatively or by full name."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found.update(n.removeprefix("essayscore.") for n in names if n.split(".")[0] == "essayscore")
    return found


def test_no_module_imports_from_future():
    # Python 3.11 is the floor, so annotations are evaluated where they are written
    futures = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "__future__"
    ]
    assert futures == []


@pytest.mark.parametrize("name", ["ngrams", "vsm", "similarity"])
def test_stage_imports_at_most_errors(name):
    assert package_imports(name) <= {"errors"}


def test_similarity_imports_no_package_module():
    assert package_imports("similarity") == set()


def test_preprocess_imports_no_package_module():
    assert package_imports("preprocess") == set()


def test_scoring_imports_are_found():
    # the parser sees the edges the pipeline really has
    assert package_imports("scoring") >= {"ngrams", "similarity", "vsm"}
