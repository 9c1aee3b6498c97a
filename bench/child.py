"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py RESULT_JSON WORKLOAD SEED QUICK TRACE OUT_DIR

Times the import of ``stabledp`` and its layer modules (set-up), then one
pass of the workload from after the import until its outputs are written.
Both times are reported at the reference host speed of ``speed.py``, whose
probe runs throughout; the raw wall-clock times are reported beside them.
WORKLOAD ``none`` stops after the import and reports the run environment. With TRACE=1 the pass runs under
the outside-in tracer and the per-layer metrics go into the result. The
result JSON is written whether or not the pass raised.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    result_path, workload, seed, quick, trace, out_dir = argv
    result: dict = {"ok": False, "error": None}
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed

    probe = speed.SpeedProbe()
    probe.start()
    try:
        mark = probe.mark()
        t0 = time.perf_counter()
        import stabledp.cli  # noqa: F401  (imports every layer module)
        result["raw_import_s"] = time.perf_counter() - t0
        result["import_s"], result["import_slowdown"] = probe.normalise(result["raw_import_s"], mark)
        probe.add_numpy_kernel()
        if workload == "none":
            import numpy

            result["env"] = {"python": platform.python_version(),
                             "numpy": numpy.__version__,
                             "openblas": _openblas_version(numpy),
                             "blas_threads": _blas_threads(numpy),
                             "stabledp_file": stabledp.__file__}
        else:
            _run(result, workload, int(seed), quick == "1", trace == "1", Path(out_dir), probe)
        result["ok"] = True
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        probe.stop()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _run(result: dict, workload: str, seed: int, quick: bool, trace: bool,
         out_dir: Path, probe) -> None:
    import tracer as tracer_mod
    import workloads

    run = workloads.RUNNERS[workload]
    variant = workloads.variant_of(seed)
    tracer = None
    if trace:
        tracer = tracer_mod.Tracer()
        tracer.install()
    out_dir.mkdir(parents=True, exist_ok=True)
    cpu0 = _cpu_s()
    mark = probe.mark()
    t0 = time.perf_counter()
    run(variant, quick, out_dir)
    result["raw_wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = _cpu_s() - cpu0
    result["wall_s"], result["slowdown"] = probe.normalise(result["raw_wall_s"], mark)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        # layer times at the reference speed too, so they compare across runs
        result["layers"] = {name: value / result["slowdown"]
                            if tracer_mod.METRICS[name][0] in ("s", "us") else value
                            for name, value in tracer.metrics(workload).items()}


def _openblas_version(numpy) -> str:
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as exc:  # numpy before 1.25 has no dict mode
        return f"unknown ({type(exc).__name__})"


def _blas_threads(numpy):
    """Threads OpenBLAS reports using, or None where the query is unavailable."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
