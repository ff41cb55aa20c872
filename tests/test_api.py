"""The public name list matches what the package defines; the lowest Python is stated alike."""

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
