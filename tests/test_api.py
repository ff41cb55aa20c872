"""Public names match what the package defines; version, lowest Python and console script agree."""

import ast
import re
import tomllib
import types
from pathlib import Path

import essayscore

ROOT = Path(__file__).resolve().parent.parent


def test_all_names_resolve():
    for name in essayscore.__all__:
        assert hasattr(essayscore, name), name


def test_all_has_no_duplicates():
    assert len(essayscore.__all__) == len(set(essayscore.__all__))


def test_all_equals_public_attributes():
    public = {
        name
        for name, value in vars(essayscore).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(essayscore.__all__) == public


def test_lowest_python_is_the_same_in_pyproject_ci_and_readme():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requires = tomllib.load(fh)["project"]["requires-python"]
    ci = (ROOT / ".github/workflows/tests.yml").read_text()
    legs = re.findall(r'"(\d+\.\d+)"', re.search(r"python-version: \[(.*)\]", ci).group(1))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"nothing beyond\s+Python\s+(\d+\.\d+)\+", readme).group(1)
    lowest = min(legs, key=lambda v: tuple(map(int, v.split("."))))
    assert requires.removeprefix(">=") == lowest == stated


def test_version_is_the_one_in_pyproject():
    """``pyproject.toml`` takes ``__version__``, a literal that setuptools reads without an import."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"] and "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "essayscore.__version__"}
    init = ast.parse((ROOT / "src/essayscore/__init__.py").read_text(encoding="utf-8"))
    [value] = [
        node.value for node in init.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__version__"
    ]
    assert isinstance(value, ast.Constant) and value.value == essayscore.__version__


def test_console_script_runs_cli_run():
    """The script pip generates calls ``cli.run``, which ``tests/test_cli.py``'s ``SCRIPT`` runs."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"essayscore": "essayscore.cli:run"}
