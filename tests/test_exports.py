"""Every name a module lists in ``__all__`` resolves, and the package re-exports
exactly those names; a stale entry would break ``from module import *``."""

import importlib

import pytest

import fuzzml

MODULES = ("dataset", "experiments", "metrics", "optimizer", "predictor", "rules",
           "sylvester", "synthgen")


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module("fuzzml." + module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_reexports_each_module_all():
    mods = [importlib.import_module("fuzzml." + module) for module in MODULES]
    assert fuzzml.__all__ == [name for mod in mods for name in mod.__all__]
    assert len(set(fuzzml.__all__)) == len(fuzzml.__all__)
    for mod in mods:
        for name in mod.__all__:
            assert getattr(fuzzml, name) is getattr(mod, name), name


def test_every_numerical_failure_is_one_type():
    assert fuzzml.NumericalError is fuzzml.optimizer.NumericalError
    assert fuzzml.NumericalError is fuzzml.sylvester.NumericalError
