"""Self-test of the benchmark harness, so it cannot rot.

Runs every workload at quick size, untraced and traced, through the same
command the full benchmark uses, and checks the result contract and the
gates. It gates no timings. Run from the root of a checkout:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_meets_the_result_contract(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 2
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace == "0":
        assert all(v > 0 for v in values.values())
    elif workload != "oracles":
        assert values["model.per_example_loss.calls"] == 0
        assert values["optimizer.sgd_run.calls"] == 0
    else:
        assert values["optimizer.sgd_run.calls"] > 0
        assert values["verify.neighbour_solves"] > 0


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BENCHMARKED)
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert per_layer == [*(m for m in tracer.METRICS if m not in tracer.REPORT_ONLY),
                         tracer.OVERHEAD_METRIC[0]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "figures", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_closed_form_gate_rejects_a_wrong_noise_scale():
    good = checks.closed_form(0.01, 1.0, 1600)
    rows = [{"lambda": "0.01", "epsilon": "1.0",
             **{k: repr(v) for k, v in good.items()}}]
    assert checks._check_closed_form(rows, 1600, tuple(good), "sweep.csv") == []
    rows[0]["noise_scale"] = repr(good["noise_scale"] * (1 + 1e-9))
    assert checks._check_closed_form(rows, 1600, tuple(good), "sweep.csv")


def test_reference_gate_allows_solver_tolerance_only():
    want = {"0.001,1.0": 0.80}
    assert checks._compare({"0.001,1.0": 0.805}, want, checks.ACC_TOL, False, "acc") == []
    assert checks._compare({"0.001,1.0": 0.78}, want, checks.ACC_TOL, False, "acc")
    assert checks._compare({"0.01,1.0": 0.80}, want, checks.ACC_TOL, False, "acc")


def test_missing_spans_fail_loudly():
    t = tracer.Tracer()
    with pytest.raises(tracer.MissingSpans):
        t._check_spans("figures", {}, {})
    calls = {source: 1 for _, source, *_rest in tracer.METRICS.values() if source}
    layer_calls = {layer: 1 for layer in tracer.LAYERS}
    calls["optimizer.sgd_run"] = 0
    with pytest.raises(tracer.MissingSpans, match="sgd_run"):
        t._check_spans("oracles", calls, layer_calls)
    # spans predicted absent on a workload are not required there
    t._check_spans("figures", calls, layer_calls)


def test_speed_probe_scales_by_the_mean_kernel_time():
    import speed

    probe = speed.SpeedProbe()
    mark = probe.mark()
    # two samples of each kernel, each twice the reference time
    for name, ref in speed.REF_S.items():
        probe.sums[name] += 4 * ref
        probe.counts[name] += 2
        probe.probe_s += 4 * ref
    spent = 4 * sum(speed.REF_S.values())
    norm, factor = probe.normalise(1.0 + spent, mark)
    assert factor == pytest.approx(2.0)
    assert norm == pytest.approx(0.5)


def test_speed_probe_samples_during_a_busy_loop():
    import time

    import speed

    probe = speed.SpeedProbe()
    probe.start()
    try:
        mark = probe.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 10 * speed.TICK_S:
            sum(range(1000))
        raw = time.perf_counter() - t0
        norm, factor = probe.normalise(raw, mark)
    finally:
        probe.stop()
    assert probe.counts["py"] >= 5
    assert factor > 0 and norm == pytest.approx((raw - probe.probe_s) / factor)
