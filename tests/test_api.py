"""The package's declared public API: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import sliptsim

MODULES = ["sliptsim"] + [
    f"sliptsim.{info.name}" for info in pkgutil.iter_modules(sliptsim.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
