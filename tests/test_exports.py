"""Every name a curelet module exports resolves."""

import importlib
import pkgutil

import pytest

import curelet

MODULES = ["curelet"] + [f"curelet.{info.name}"
                         for info in pkgutil.iter_modules(curelet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
