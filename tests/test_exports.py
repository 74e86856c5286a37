"""Every name a module lists in ``__all__`` resolves, and the package re-exports
exactly those names; a stale entry would break ``from module import *``."""

import importlib
from pathlib import Path

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


def test_every_input_failure_is_a_value_error(tmp_path):
    ragged = tmp_path / "X.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    model_text = (Path(__file__).parent / "data" / "model_with_counts.txt").read_text()
    truncated = tmp_path / "model.txt"
    truncated.write_text("\n".join(model_text.splitlines()[:10]) + "\n")
    failures = [
        (lambda: fuzzml.load_matrix(ragged), "ragged feature row at %s line 2" % ragged),
        (lambda: fuzzml.Dataset([[0.5]], [[2.0]]), "non-binary label"),
        (lambda: fuzzml.load_model(truncated), "checksum failure"),
    ]
    for call, message in failures:
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError
        assert str(info.value) == message
    for name in ("DataFormatError", "ModelFormatError", "RESIDUAL_RTOL"):
        assert name not in fuzzml.__all__
