"""Every name a module exports in `__all__` resolves on that module."""

import importlib

import pytest

MODULES = [
    "moranbeta",
    "moranbeta.special",
    "moranbeta.beta",
    "moranbeta.model",
    "moranbeta.stein",
    "moranbeta.moments",
    "moranbeta.distance",
]


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)
