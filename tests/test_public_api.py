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
    # law or its report, so no call can pair two points that disagree.  The
    # distances also take an optional atom holder, which changes no bit of
    # either (tests/test_distance.py), so the law is their one required
    # parameter.
    import inspect

    import moranbeta

    for fn in (moranbeta.wasserstein, moranbeta.kolmogorov):
        params = inspect.signature(fn).parameters.values()
        required = [p.name for p in params if p.default is inspect.Parameter.empty]
        assert required == ["pi"], fn.__name__
    for fn in (moranbeta.stein_report, moranbeta.e_abs_s, moranbeta.moment_recursion):
        assert len(inspect.signature(fn).parameters) == 1, fn.__name__
    assert len(moranbeta.__all__) == 17
    assert importlib.import_module("moranbeta.beta").__all__ == ["variance"]
