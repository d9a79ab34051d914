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


def test_per_point_functions_take_one_argument():
    # Each reads its point from the one thing it is given, the point, its
    # law or its report, so no call can pair two points that disagree.
    import inspect

    import moranbeta

    one = (
        moranbeta.wasserstein,
        moranbeta.kolmogorov,
        moranbeta.stein_report,
        moranbeta.e_abs_s,
        moranbeta.moment_recursion,
    )
    for fn in one:
        assert len(inspect.signature(fn).parameters) == 1, fn.__name__
    assert len(moranbeta.__all__) == 17
    assert importlib.import_module("moranbeta.beta").__all__ == ["variance"]
