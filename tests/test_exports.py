"""Every name a module lists in ``__all__``, and every name the package
re-exports, resolves; a stale entry would break ``from module import *``."""

import ast
import importlib
from pathlib import Path

import pytest

import fuzzml

MODULES = ("dataset", "experiments", "metrics", "optimizer", "predictor", "rules",
           "sylvester", "synthgen")


def _reexports():
    """(module, name) for each name ``fuzzml/__init__.py`` imports from a module."""
    tree = ast.parse(Path(fuzzml.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module("fuzzml." + module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_reexport_is_public_in_its_module():
    pairs = _reexports()
    assert {module for module, _ in pairs} == set(MODULES)
    for module, name in pairs:
        mod = importlib.import_module("fuzzml." + module)
        assert name in mod.__all__, name
        assert getattr(fuzzml, name) is getattr(mod, name)
