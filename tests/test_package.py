"""The package's exported names; the benchmark's tracer finds functions through ``__all__``."""

import importlib
import pkgutil
import subprocess
import sys
import textwrap
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
    # urllib.request took 37-54 ms of a 190-250 ms import, for fetch alone; the
    # gradient's worker imports queue when it starts, and concurrent.futures
    # would bring logging
    probe = (f"import sys; sys.path.insert(0, {str(Path(stabledp.__file__).parents[1])!r}); "
             "import stabledp.cli; "
             "print(sorted({'urllib.request', 'hashlib', 'queue', 'logging', "
             "'concurrent.futures'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_measured_passes_leave_numpy_ma_unloaded(tmp_path):
    # numpy 2.x imports numpy.ma on first use, and np.median and np.unique
    # use it: 12-16 ms in the middle of a pass
    probe = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(Path(stabledp.__file__).parents[1])!r})
        import numpy
        if "numpy.ma" in sys.modules:
            print("preloaded")
            raise SystemExit
        from pathlib import Path
        from stabledp.cli import DatasetConfig, SweepConfig, cmd_select, cmd_sweep, cmd_verify
        from stabledp.data_io import SplitPlan
        cfg = SweepConfig(
            dataset=DatasetConfig(kind="synthetic", n=120, d=12, classes=2, sparsity=4,
                                  noise=0.3, structured_noise=False, seed=3, reduce_to=6),
            split=SplitPlan(seed=0, repeats=2), lambda_grid=(0.05, 0.2),
            epsilon_grid=(1.0, 4.0), tolerance=1e-7)
        out = Path({str(tmp_path)!r})
        cmd_sweep(cfg, out / "sweep")
        cmd_select(cfg, out / "select")
        cmd_verify("all", trials=5, probes=5, samples=20_000, draws=5_000)
        print("numpy.ma" in sys.modules)
    """)
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    last = run.stdout.strip().splitlines()[-1]
    if last == "preloaded":
        pytest.skip("import numpy loads numpy.ma itself (numpy < 2)")
    assert last == "False"
