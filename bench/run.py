"""stabledp benchmark: time, check and trace one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload figures --seed 0 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another and ends with
one JSON object whose metric names are prefixed by the workload.

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``figures``:    default ``sweep`` plus the ``select`` figure run; 640 solves
                  on 10 training matrices, so per-call overhead dominates.
* ``oracles``:    ``verify all`` plus the SGD stability oracle at four knob
                  settings; every neighbour solve sees a fresh X.
* ``scaled_ovr``: n=20 000, d=200, 4 classes one-vs-rest; each iteration
                  streams a 25.6 MB X, so passes over X dominate. Run by
                  hand only, not in ``BENCHMARK.json``: on a shared host its
                  time follows the memory system's load from other tenants.

Every pass runs in a fresh interpreter, one at a time, with the BLAS thread
count fixed. A pass is timed from after ``import stabledp`` until its outputs
are written. Times are reported at a fixed reference speed of the host
(``speed.py``), so that a shared host's changing speed cancels out; the raw
wall-clock times are printed beside them. Passes repeat until ``--seconds``
of measuring is used up, and the run reports medians:

* ``--trace 0``: ``wall_s``, ``setup_s`` (importing the package in a fresh
  interpreter) and ``peak_rss_mb`` of untraced passes.
* ``--trace 1``: one untraced pass, then passes under the outside-in tracer
  (``tracer.py``); reports every per-layer metric and the tracing overhead.

Outputs are checked outside the timed region (``checks.py``); a pass that
raises or fails a gate counts as failed and its time is dropped. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--quick`` shrinks every workload to a
fraction of a second for the self-test (``test_bench.py``); it gates no
timings.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT_METRICS, METRICS, OVERHEAD_METRIC, REPORT_ONLY  # noqa: E402

# Fixed so that runs compare. One thread keeps a pass on one CPU, where the
# speed probe (speed.py) runs: with two, a pass waits on the second CPU's
# speed, which the probe does not see.
BLAS_THREADS = 1
MIN_PASSES = 2    # byte-identical outputs are checked between passes
MIN_TRACED = 2    # count metrics must repeat exactly between traced passes
MIN_SETUPS = 11   # fresh-interpreter imports behind the setup_s median
RUN_LIMIT_S = 165  # the whole run, set-up included, ends well within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """One benchmark run: passes of one workload at one seed."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, quick: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.variant = workloads.variant_of(seed)
        self.seconds = seconds
        self.trace = trace
        self.quick = quick
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = child_env(root)
        self.started = time.perf_counter()
        self.passes: list = []
        self.setups: list = []
        self.raw_setups: list = []
        self.errors: list = []
        path = checks.REFERENCE_PATH
        self.reference = json.loads(path.read_text()) if path.is_file() else {}

    # -- children ---------------------------------------------------------

    def child(self, workload: str, traced: bool, tag: str) -> dict:
        out_dir = self.work / tag
        result_path = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path), workload,
               str(self.seed), "1" if self.quick else "0", "1" if traced else "0",
               str(out_dir)]
        budget = RUN_LIMIT_S - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=max(budget, 5))
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            return {"ok": False, "error": f"{tag}: no result within {budget:.0f} s",
                    "elapsed_s": time.perf_counter() - t0}
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {"ok": False, "error": f"{tag}: no result (exit {proc.returncode})\n{stderr}"}
        result["elapsed_s"] = time.perf_counter() - t0
        result["out_dir"] = out_dir
        return result

    def setup(self) -> dict | None:
        """Import-only warm-up: compiles bytecode and proves the package is this checkout's."""
        self.work.mkdir(parents=True, exist_ok=True)
        result = self.child("none", False, "warmup")
        if not result["ok"]:
            print(f"bench: cannot import stabledp from {self.root / 'src'}:\n{result['error']}",
                  file=sys.stderr)
            return None
        src = (self.root / "src").resolve()
        if src not in Path(result["env"]["stabledp_file"]).resolve().parents:
            print(f"bench: stabledp was imported from {result['env']['stabledp_file']}, "
                  f"not from {src}", file=sys.stderr)
            return None
        return result["env"]

    # -- passes -----------------------------------------------------------

    def run_passes(self) -> None:
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            k = len(self.passes)
            traced = self.trace and k > 0
            needed = 1 + MIN_TRACED if self.trace else MIN_PASSES
            used = time.perf_counter() - t0
            if k >= needed and used + longest > self.seconds:
                break
            if time.perf_counter() - self.started + longest > RUN_LIMIT_S:
                if k < needed:
                    self.errors.append(f"only {k} passes fit in {RUN_LIMIT_S} s")
                break
            result = self.child(self.workload, traced, f"pass{k}")
            result["traced"] = traced
            result["gate_errors"] = self.gate(result)
            longest = max(longest, result["elapsed_s"])
            if "import_s" in result:
                self.setups.append(result["import_s"])
                self.raw_setups.append(result["raw_import_s"])
            self.passes.append(result)
        while len(self.setups) < MIN_SETUPS:
            result = self.child("none", False, f"setup{len(self.setups)}")
            if not result["ok"]:
                self.errors.append(result["error"])
                break
            self.setups.append(result["import_s"])
            self.raw_setups.append(result["raw_import_s"])

    def gate(self, result: dict) -> list:
        if not result["ok"]:
            return [result["error"]]
        out_dir = result["out_dir"]
        try:
            errors = checks.check_outputs(self.workload, self.quick, out_dir)
            errors += checks.check_reference(self.workload, self.variant, self.quick,
                                             out_dir, self.reference)
        except (OSError, KeyError, ValueError) as exc:
            errors = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        result["digests"] = digests(out_dir)
        first = next((p["digests"] for p in self.passes if "digests" in p), None)
        if first is not None and result["digests"] != first:
            changed = sorted(k for k in set(first) | set(result["digests"])
                             if first.get(k) != result["digests"].get(k))
            errors.append(f"outputs differ from the first pass: {changed}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return errors

    # -- results ----------------------------------------------------------

    def good(self, traced: bool) -> list:
        return [p for p in self.passes if p["traced"] == traced and not p["gate_errors"]]

    def failed(self) -> int:
        return sum(1 for p in self.passes if p["gate_errors"])

    def end_to_end(self) -> dict:
        good = self.good(False)
        return {
            "wall_s": median([p["wall_s"] for p in good]),
            "setup_s": median(self.setups),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in good]),
        }

    def per_layer(self) -> dict:
        traced = self.good(True)
        if not traced:
            return {name: 0.0 for name in METRICS} | {OVERHEAD_METRIC[0]: 0.0}
        first = traced[0]["layers"]
        for p in traced[1:]:
            differ = [m for m in COUNT_METRICS if p["layers"][m] != first[m]]
            if differ:
                self.errors.append(f"count metrics differ between traced passes: {differ}")
        out = {name: median([p["layers"][name] for p in traced]) for name in METRICS}
        untraced = self.good(False)
        out[OVERHEAD_METRIC[0]] = (median([p["wall_s"] for p in traced])
                                   - median([p["wall_s"] for p in untraced]))
        return out

    def report(self) -> dict:
        for p in self.passes:
            kind = "traced" if p["traced"] else "untraced"
            if "wall_s" in p:
                line = (f"  pass {kind:8s} wall {p['wall_s']:8.4f} s  raw {p['raw_wall_s']:8.4f} s  "
                        f"slowdown {p['slowdown']:5.3f}  cpu {p['cpu_s']:8.4f} s  "
                        f"rss {p['peak_rss_mb']:7.1f} MB  setup {p['import_s']:.4f} s")
            else:
                line = f"  pass {kind:8s} raised"
            print(line + ("  ok" if not p["gate_errors"] else "  FAILED"))
            for err in p["gate_errors"]:
                print(f"    gate: {err.strip()}")
        for err in self.errors:
            print(f"  error: {err.strip()}")

        good = self.good(False)
        walls = [p["wall_s"] for p in good]
        cpus = [p["cpu_s"] for p in good]
        print(f"  wall_s      {describe(walls, 's')}")
        print(f"  setup_s     {describe(self.setups, 's')}")
        print(f"  peak_rss_mb {describe([p['peak_rss_mb'] for p in good], 'MB')}")
        print(f"  raw wall    {describe([p['raw_wall_s'] for p in good], 's')}  (reported, not gated)")
        print(f"  raw setup   {describe(self.raw_setups, 's')}  (reported, not gated)")
        print(f"  cpu_s       {describe(cpus, 's')}  (reported, not gated)")

        failed = self.failed()
        correct = failed == 0 and not self.errors and bool(good)
        if self.trace:
            values = self.per_layer()
            correct = correct and not self.errors
            units = {name: spec[0] for name, spec in METRICS.items()}
            units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
            for name, value in values.items():
                moves = METRICS[name][3] if name in METRICS else "none: tracing cost"
                print(f"  {name:40s} {value:14.6g} {units[name]:10s} moves {moves}")
            self.check_zero_predictions(values)
        else:
            values = self.end_to_end()
            units = END_TO_END
        print(f"  attempted {len(self.passes)} failed {failed} correct {str(correct).lower()}")
        return {"correct": correct, "attempted": len(self.passes), "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in values.items() if name not in REPORT_ONLY}}

    def check_zero_predictions(self, values: dict) -> None:
        """Print, without failing, any metric predicted absent that got spans."""
        for name, (_, _source, absent_on, _moves) in METRICS.items():
            if self.workload in absent_on and values[name] != 0:
                print(f"  note: {name} predicted 0 on {self.workload}, measured {values[name]}")


def median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def describe(values: list, unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    if not values:
        return "no samples"
    text = f"median {statistics.median(values):.4f} {unit}"
    n = len(values)
    if n > 10:
        k = n - 10
        text += f", p{100.0 * k / n:.0f} {sorted(values)[k - 1]:.4f} {unit} (10 beyond)"
    else:
        text += ", no percentile has ten samples beyond it"
    return text + f", n={n}"


def digests(out_dir: Path) -> dict:
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_one(root: Path, workload: str, args) -> dict | None:
    """Run one workload and print its report; None when the package cannot be run."""
    run = Run(root, workload, args.seed, args.seconds, bool(args.trace), args.quick)
    try:
        env = run.setup()
        if env is None:
            return None
        env.pop("stabledp_file")
        env.update({"git_sha": git_sha(root), "blas_threads_set": blas_threads(),
                    "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                    "cpu_model": cpu_model(), "workload": workload, "seed": args.seed,
                    "variant": run.variant, "trace": args.trace, "quick": args.quick,
                    "seconds": args.seconds})
        print(f"stabledp benchmark: {workload} seed {args.seed} "
              f"(variant {run.variant}), trace {args.trace}")
        print("  env " + json.dumps(env, sort_keys=True))
        run.run_passes()
        return run.report()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the self-test; gates no timings")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stabledp" / "__init__.py").is_file():
        print(f"bench: no stabledp sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_one(root, name, args)
        if result is None:
            return 2
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
