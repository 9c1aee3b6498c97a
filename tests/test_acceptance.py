"""Acceptance gate: every release criterion, at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
all). Fixtures and seeds are pinned, so the gate is deterministic.
"""

import csv
import math

import numpy as np

from stabledp.cli import (
    DatasetConfig,
    SweepConfig,
    cmd_select,
    cmd_sweep,
    cmd_train,
    cmd_verify,
    run_verify_suite,
)
from stabledp.data_io import SplitPlan, synth_classification
from stabledp.features import lemma_noise
from stabledp.model import ObjectiveSpec
from stabledp.optimizer import s_dropout
from stabledp.privacy import laplace_sample
from stabledp.rng import derive_rng
from stabledp.stability import privacy_enhancement
from stabledp.verify import (
    empirical_privacy_error,
    empirical_sensitivity,
    empirical_stability,
    flip_rate_check,
    gradient_check,
    privacy_error_scaling,
)


def report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def oracle_fixture(lam: float, penalty: str = "l2"):
    S, _ = synth_classification(50, 5, classes=2, sparsity=5, noise=0.5, seed=5)
    if penalty == "elastic":
        spec = ObjectiveSpec("logistic", lam, penalty="elastic", gamma=0.85, kappa=1.0)
    else:
        spec = ObjectiveSpec("logistic", lam, penalty="l2", kappa=1.0)
    return spec, S


def shape_fixture():
    return DatasetConfig(kind="synthetic", n=2000, d=48, classes=4, sparsity=8,
                         noise=0.3, structured_noise=True, seed=7, reduce_to=32,
                         kappa=1.0)


def test_criterion_1_sensitivity_soundness():
    worst_margin = math.inf
    for lam in (0.1, 0.5, 2.0):
        spec, S = oracle_fixture(lam)
        rep = empirical_sensitivity(spec, S, trials=200, seed=101)
        if not rep.passed:
            report("criterion 1: sensitivity soundness", False, rep.summary())
        worst_margin = min(worst_margin, rep.margin)
    report("criterion 1: sensitivity soundness",
           True, f"zero violations over 3 lambdas x 200 pairs, min margin {worst_margin:.3g}")


def test_criterion_2_uniform_stability_soundness():
    specs = [oracle_fixture(lam) for lam in (0.1, 0.5, 2.0)]
    specs.append(oracle_fixture(0.5, penalty="elastic"))
    worst_margin = math.inf
    for spec, S in specs:
        rep = empirical_stability(spec, S, trials=200, probes=50, seed=202)
        if not rep.passed:
            report("criterion 2: uniform-stability soundness", False, rep.summary())
        worst_margin = min(worst_margin, rep.margin)
    report("criterion 2: uniform-stability soundness",
           True, f"zero violations, L2 grid + elastic, min margin {worst_margin:.3g}")


def test_criterion_3_laplace_calibration():
    r = laplace_sample(1.0, 1_000_000, derive_rng(303))
    var = float(r.var())
    ok = abs(var - 2.0) <= 0.04
    cdf_errs = []
    for t in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.abs(r) <= t))
        cdf_errs.append(abs(emp - (1 - math.exp(-t))))
    ok = ok and max(cdf_errs) <= 0.005
    report("criterion 3: Laplace calibration", ok,
           f"var {var:.4f} (target 2 +/- 2%), max CDF gap {max(cdf_errs):.5f} <= 0.005")


def test_criterion_4_dp_micro_check():
    results = {name: rep for name, rep, _, _ in
               run_verify_suite("dp", samples=1_000_000, seed=404)}
    calibrated = results["dp_known_sensitivity"]
    control = results["dp_negative_control"]
    erm = results["dp_erm_release"]
    ok = calibrated.passed and (not control.passed) and erm.passed
    report("criterion 4: DP micro-check", ok,
           f"calibrated max ratio {calibrated.empirical_value:.3f} <= "
           f"{calibrated.bound_value:.3f}; "
           f"half-noise control ratio {control.empirical_value:.3f} flagged; "
           f"strong-convexity-calibrated ERM release ratio {erm.empirical_value:.3f}")


def test_criterion_5_privacy_enhancement_identity():
    rng = derive_rng(505)
    worst = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.01, 10))
        eps = float(rng.uniform(0.1, 10))
        b1 = float(rng.uniform(1e-3, 10))
        b2 = b1 * float(rng.uniform(0.01, 1.0))
        eps2 = privacy_enhancement(eps, b1, b2)
        s1 = math.sqrt(2 * b1) / (eps * math.sqrt(lam))
        s2 = math.sqrt(2 * b2) / (eps2 * math.sqrt(lam))
        worst = max(worst, abs(s1 - s2) / max(1.0, s1))
    report("criterion 5: noise-scale identity", worst <= 1e-12,
           f"max relative gap {worst:.2e} <= 1e-12 over 100 points")


def test_criterion_6_privacy_error_bound():
    spec, S = oracle_fixture(0.5)
    rep = empirical_privacy_error(spec, S, epsilon=1.0, draws=10_000, seed=606)
    scaling = privacy_error_scaling(spec, S, epsilons=(0.5, 1.0, 2.0),
                                    draws=10_000, seed=607)
    ok = rep.passed and -1.2 <= scaling["slope"] <= -0.8
    report("criterion 6: privacy-error bound", ok,
           f"MC mean {rep.empirical_value:.4f} <= bound {rep.bound_value:.4f}; "
           f"log-log slope {scaling['slope']:.3f} in [-1.2, -0.8]")


def test_criterion_7_flip_rates():
    worst_gap_sigmas = 0.0
    for i, T in enumerate((0.5, 1.0, 2.0)):
        for j, eps in enumerate((0.5, 1.0, 2.0)):
            noise = lemma_noise(eps, lam=0.1, eta=0.15, n=10_000, L=1.0, kappa=1.0)
            rep = flip_rate_check(T, 0.0, noise, draws=100_000, seed=700 + 10 * i + j)
            gap = abs(rep.empirical_value - rep.bound_value)
            worst_gap_sigmas = max(worst_gap_sigmas, gap / rep.details["mc_stderr"])
            if not rep.passed:
                report("criterion 7: flip-rate formula", False, rep.summary())
    report("criterion 7: flip-rate formula", True,
           f"3x3 (T, eps) grid, worst gap {worst_gap_sigmas:.2f} sigma <= 3")


def test_criterion_8_s_dropout_contract():
    rng = derive_rng(808)
    violations = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 16))
        v = rng.standard_normal(d) * (10.0 ** rng.integers(-3, 4))
        s = float(rng.uniform(0.01, 1.0))
        out = s_dropout(v, s, rng)
        if np.linalg.norm(out) > s * np.linalg.norm(v):
            violations += 1
    report("criterion 8: s-dropout norm contract", violations == 0,
           f"{violations} violations in 10000 invocations")


def _aggregate_accuracies(path):
    out = []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if row["repeat"] == "-1":
                out.append((float(row["lambda"]), float(row["test_accuracy"])))
    return out


def test_criterion_9_figure1_shape(tmp_path):
    grid = (0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.5, 1.0)
    common = dict(dataset=shape_fixture(), split=SplitPlan(seed=0, repeats=10),
                  lambda_grid=grid, epsilon_grid=(1.0,), tolerance=1e-6)

    opt = _aggregate_accuracies(cmd_sweep(
        SweepConfig(noise_mode="stability_optimal", **common), tmp_path / "opt"))
    accs = [a for _, a in opt]
    interior_max = max(accs[1:-1])
    gain = interior_max - accs[0]
    shape_ok = gain >= 0.05 and accs.index(max(accs)) not in (0, len(accs) - 1)

    fixed = _aggregate_accuracies(cmd_sweep(
        SweepConfig(noise_mode="fixed_scale", fixed_scale_b=0.3, **common),
        tmp_path / "fixed"))
    upper = [a for _, a in fixed][len(fixed) // 2:]
    decay_ok = all(b <= a + 1e-12 for a, b in zip(upper, upper[1:]))

    report("criterion 9: stability-vs-fixed noise sweep shape", shape_ok and decay_ok,
           f"interior max {interior_max:.3f} vs smallest-lambda {accs[0]:.3f} "
           f"(+{100 * gain:.1f} points >= 5); fixed-scale upper-half decay "
           f"{' -> '.join(f'{a:.3f}' for a in upper)}")


def test_criterion_10_figure3_shape(tmp_path):
    cfg = SweepConfig(
        dataset=shape_fixture(), split=SplitPlan(seed=0, repeats=10),
        lambda_grid=(0.0005, 0.001, 0.002, 0.004, 0.007, 0.012, 0.02, 0.035),
        epsilon_grid=(4.0,), noise_mode="stability_optimal",
        threshold_mode="dynamic", threshold_k=1.0, tolerance=1e-6,
    )
    path = cmd_select(cfg, tmp_path / "select")
    f1 = []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            if row["repeat"] == "-1":
                f1.append(float(row["f1_similarity"]))
    upper = f1[len(f1) // 2:]
    ok = all(b >= a - 1e-9 for a, b in zip(upper, upper[1:]))
    report("criterion 10: feature-similarity shape", ok,
           "upper-half F1 " + " -> ".join(f"{v:.3f}" for v in upper) + " non-decreasing")


def test_criterion_11_gradient_checks():
    worst = 0.0
    for kind in ("logistic", "squared"):
        for penalty, kwargs in (("l2", {}), ("elastic", {"gamma": 0.85})):
            spec = ObjectiveSpec(kind, 0.2, penalty=penalty, lipschitz_L=1.0, **kwargs)
            rep = gradient_check(spec, n_fixtures=100, seed=1111)
            worst = max(worst, rep.empirical_value)
            if not rep.passed:
                report("criterion 11: gradient checks", False, rep.summary())
    report("criterion 11: gradient checks", True,
           f"max relative error {worst:.2e} < 1e-5 over all smooth objectives")


def test_criterion_12_determinism(tmp_path):
    cfg = SweepConfig(
        dataset=DatasetConfig(kind="synthetic", n=150, d=12, classes=2, sparsity=4,
                              noise=0.3, structured_noise=False, seed=3, reduce_to=6),
        split=SplitPlan(seed=0, repeats=3),
        lambda_grid=(0.05, 0.2), epsilon_grid=(1.0, 3.0),
        noise_mode="stability_optimal", tolerance=1e-7,
    )
    mismatches = []
    for name, runner in (("sweep", cmd_sweep), ("train", cmd_train), ("select", cmd_select)):
        p1 = runner(cfg, tmp_path / f"{name}_a")
        p2 = runner(cfg, tmp_path / f"{name}_b")
        if p1.read_bytes() != p2.read_bytes():
            mismatches.append(name)
        meta1 = p1.with_name(p1.stem + ".meta.json")
        meta2 = p2.with_name(p2.stem + ".meta.json")
        if meta1.read_bytes() != meta2.read_bytes():
            mismatches.append(name + ".meta")
    # dp and flips are the suites whose draws go through privacy.laplace_sample
    for suite, sizes in (("gradients", {}), ("sensitivity", {}), ("stability", {}),
                         ("dp", {"samples": 20_000}), ("flips", {"draws": 5_000})):
        r1, r2 = tmp_path / f"{suite}_1.json", tmp_path / f"{suite}_2.json"
        cmd_verify(suite, out_path=r1, trials=5, probes=5, **sizes)
        cmd_verify(suite, out_path=r2, trials=5, probes=5, **sizes)
        if r1.read_bytes() != r2.read_bytes():
            mismatches.append(f"verify {suite}")
    report("criterion 12: byte-identical reruns", not mismatches,
           "sweep/train/select CSVs + metadata + verify gradients/sensitivity/stability/dp/flips" +
           (f"; mismatches: {mismatches}" if mismatches else ""))
