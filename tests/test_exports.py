"""Every public name a layerlab module declares in __all__ exists."""

import importlib

import pytest

MODULES = ("layerlab", "layerlab.kernels", "layerlab.materials",
           "layerlab.plate", "layerlab.sphere", "layerlab.series",
           "layerlab.regimes", "layerlab.cli", "layerlab.verify",
           "layerlab.csv17")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    assert mod.__all__, name
    assert len(set(mod.__all__)) == len(mod.__all__), name
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == [], f"{name}.__all__ names {missing}"
