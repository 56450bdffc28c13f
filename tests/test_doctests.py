"""The docstring examples of every `goglattice` module, run as doctests."""

import doctest
import importlib
import inspect
import pkgutil

import pytest

import goglattice

MODULES = ["goglattice"] + [
    f"goglattice.{info.name}" for info in pkgutil.iter_modules(goglattice.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.failed == 0
    # A module whose source shows examples must have them collected and run.
    assert (result.attempted > 0) == (">>>" in inspect.getsource(module))


def test_examples_exist():
    attempted = sum(doctest.testmod(importlib.import_module(name)).attempted for name in MODULES)
    assert attempted >= 16
