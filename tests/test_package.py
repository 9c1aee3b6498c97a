"""The package's exported names; the benchmark's tracer finds functions through ``__all__``."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stabledp

MODULES = ["stabledp", *(f"stabledp.{m.name}" for m in pkgutil.iter_modules(stabledp.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def test_cli_import_leaves_fetch_modules_unloaded():
    # urllib.request took 37-54 ms of a 190-250 ms import, for fetch alone
    probe = (f"import sys; sys.path.insert(0, {str(Path(stabledp.__file__).parents[1])!r}); "
             "import stabledp.cli; "
             "print(sorted({'urllib.request', 'hashlib'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
