"""The package's exported names; the benchmark's tracer finds functions through ``__all__``."""

import importlib
import pkgutil

import pytest

import stabledp

MODULES = ["stabledp", *(f"stabledp.{m.name}" for m in pkgutil.iter_modules(stabledp.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
