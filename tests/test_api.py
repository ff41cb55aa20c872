"""The package's public name list matches what the package defines."""

import types

import essayscore


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
