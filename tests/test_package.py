"""The package's public surface."""

import types

import wamlab


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(wamlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(wamlab.__all__) == public | {"__version__"}
    assert len(wamlab.__all__) == len(set(wamlab.__all__))
