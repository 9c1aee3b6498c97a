"""Output gates, run by the parent process outside the timed region.

* Closed-form CSV columns (``beta``, ``sensitivity_l2``, ``noise_scale``,
  ``threshold_T``) are recomputed here from the paper's formulas and must
  match to floating-point precision.
* Aggregate accuracy and F1, and the SGD stability measurements, must match
  ``reference.json``, recorded at the seed commit, within tolerances that a
  different solver converging to the same optimum meets.
* The verify report must be all-OK, with the half-noise negative control
  failing as expected and no oracle solve failing to converge.

Every check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import workloads

# solve_erm stops at a gradient-mapping residual of 1e-6, so two solvers
# that both converge may differ by about 1e-6 / lambda_sc in the weights.
# At the smallest lambda that can flip a few borderline test points (of 400
# per split) or near-threshold features; the noise streams are identical,
# so these tolerances allow that and little more.
ACC_TOL = 0.01
F1_TOL = 0.02
# SGD runs are bit-reproducible; this only absorbs reordered float sums.
SGD_REL_TOL = 1e-6
CLOSED_FORM_REL_TOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def closed_form(lam: float, eps: float, n_train: int) -> dict:
    """Verbatim elastic-net release constants for one grid cell (L = kappa)."""
    L, kappa, gamma = workloads.KAPPA, workloads.KAPPA, workloads.GAMMA
    beta = 2.0 * L * L * kappa / (n_train * lam * gamma)
    noise = math.sqrt(2.0 * beta / (lam * gamma)) / eps
    return {
        "beta": beta,
        "sensitivity_l2": math.sqrt(2.0 * beta / (2.0 * lam * gamma)),
        "noise_scale": noise,
        "threshold_T": workloads.THRESHOLD_K * math.sqrt(2.0) * noise,
    }


def _rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_closed_form(rows: list, n_train: int, columns: tuple, where: str) -> list:
    errors = []
    for i, row in enumerate(rows):
        want = closed_form(float(row["lambda"]), float(row["epsilon"]), n_train)
        for col in columns:
            got = float(row[col])
            if not math.isclose(got, want[col], rel_tol=CLOSED_FORM_REL_TOL):
                errors.append(f"{where} row {i + 2}: {col} {got!r} != closed form {want[col]!r}")
    return errors


def _aggregates(rows: list, column: str) -> dict:
    return {f"{row['lambda']},{row['epsilon']}": float(row[column])
            for row in rows if row["repeat"] == "-1"}


def extract(workload: str, out_dir: Path) -> dict:
    """The figures a pass is compared on against the reference."""
    if workload == "oracles":
        sgd = json.loads((out_dir / "oracles.json").read_text())["sgd"]
        return {"sgd_stability": {k: v["empirical_value"] for k, v in sgd.items()}}
    out = {"sweep_accuracy": _aggregates(_rows(out_dir / "sweep" / "sweep.csv"),
                                         "test_accuracy")}
    if workload == "figures":
        out["select_f1"] = _aggregates(_rows(out_dir / "select" / "select.csv"),
                                       "f1_similarity")
    return out


def _compare(got: dict, want: dict, tol: float, relative: bool, where: str) -> list:
    if set(got) != set(want):
        return [f"{where}: cells {sorted(got)} differ from the reference {sorted(want)}"]
    errors = []
    for key, ref in want.items():
        allowed = tol * abs(ref) if relative else tol
        if not math.isfinite(got[key]) or abs(got[key] - ref) > allowed:
            errors.append(f"{where} {key}: {got[key]!r} vs reference {ref!r} (tolerance {allowed:.3g})")
    return errors


def check_reference(workload: str, variant: int, quick: bool, out_dir: Path,
                    reference: dict) -> list:
    try:
        want = reference["quick" if quick else "full"][workload][str(variant)]
    except KeyError:
        return [f"no reference recorded for {workload} variant {variant}"]
    got = extract(workload, out_dir)
    tolerances = {"sweep_accuracy": (ACC_TOL, False), "select_f1": (F1_TOL, False),
                  "sgd_stability": (SGD_REL_TOL, True)}
    errors = []
    for key, (tol, relative) in tolerances.items():
        if key in want:
            errors += _compare(got.get(key, {}), want[key], tol, relative, key)
    return errors


def check_outputs(workload: str, quick: bool, out_dir: Path) -> list:
    """Gates that need no reference: closed forms and the verify verdicts."""
    if workload == "oracles":
        return _check_oracles(out_dir)
    p = workloads.sizes(workload, quick)
    n_train = workloads.n_train(p["n"])
    errors = _check_closed_form(_rows(out_dir / "sweep" / "sweep.csv"), n_train,
                                ("beta", "sensitivity_l2", "noise_scale"), "sweep.csv")
    if workload == "figures":
        errors += _check_closed_form(_rows(out_dir / "select" / "select.csv"), n_train,
                                     ("noise_scale", "threshold_T"), "select.csv")
    return errors


def _check_oracles(out_dir: Path) -> list:
    errors = []
    summary = json.loads((out_dir / "oracles.json").read_text())
    if summary["verify_exit_code"] != 0:
        errors.append(f"cmd_verify returned {summary['verify_exit_code']}")
    report = json.loads((out_dir / "verify.json").read_text())
    if not report["all_ok"]:
        errors.append("verify report is not all_ok")
    for check in report["checks"]:
        if not check["ok"]:
            errors.append(f"verify check {check['name']} landed on the wrong side")
        failures = check["report"].get("details", {}).get("solver_failures", 0)
        if failures:
            errors.append(f"verify check {check['name']}: {failures} solves did not converge")
    control = [c for c in report["checks"] if c["name"] == "dp_negative_control"]
    if not control or control[0]["expected_pass"] or control[0]["report"]["passed"]:
        errors.append("the half-noise negative control did not fail as expected")
    for knob, rep in summary["sgd"].items():
        if not math.isfinite(rep["empirical_value"]):
            errors.append(f"sgd {knob}: non-finite stability {rep['empirical_value']!r}")
    return errors
