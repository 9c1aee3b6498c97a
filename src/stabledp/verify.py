"""Brute-force oracles that empirically stress every closed-form bound.

Each oracle samples neighboring datasets (one record swapped for a fresh
one), trains S and every sampled neighbor as the columns of one block (one
``solve_erm`` call to a tolerance well below the margins being asserted, or
one coupled ``sgd_run``), and compares the observed quantity against its
bound. A block of m datasets of shape (n, d) holds m*n*d floats.
Sampling gives a sound one-sided check: an empirical value below the bound
is necessary for the bound's correctness, not sufficient. Oracles never
share random streams with the mechanisms they test, and every report is
reproducible from (inputs, seed).

Fresh records (neighbors' replacements and probe points) come from one
sampler, ``_fresh_rows``: record by record, in a fixed order (normal
direction, radius uniform, label), into one preallocated block, so a block
of k records is the stream of k single-record draws. The order is fixed
because the benchmark reference pins SGD-stability values drawn from it.
"""

from __future__ import annotations

import math

import numpy as np

from .features import flip_probability, select_features
from .model import (
    _COUNT,
    Dataset,
    ObjectiveSpec,
    _at_least,
    _loss_values,
    _require,
    _require_each,
    gradient,
    per_example_grad,
    per_example_loss,
    smooth_objective,
    strong_convexity_constant,
)
from .optimizer import ConvergenceError, SgdConfig, sgd_run, solve_erm
from .privacy import Noise, OracleReport, perturb
from .rng import derive_rng
from .stability import (
    privacy_error_bound,
    sensitivity_l2_direct,
    sensitivity_via_strong_convexity,
    spec_cert,
)

__all__ = [
    "OracleReport",
    "empirical_sensitivity",
    "empirical_stability",
    "empirical_privacy_error",
    "privacy_error_scaling",
    "gradient_check",
    "flip_rate_check",
    "empirical_sgd_stability",
]


def _fresh_rows(spec: ObjectiveSpec, d: int, k: int, rng: np.random.Generator):
    """k fresh records as (X, y): kappa-bounded rows (uniform in the ball), +/-1 labels.

    Drawn in the fixed per-record order of the module docstring.
    """
    X, y, c = np.empty((k, d)), np.empty(k), np.empty(k)
    for i, v in enumerate(X):
        rng.standard_normal(out=v)
        radius = spec.kappa * rng.random() ** (1.0 / d)
        # bit-identical to np.linalg.norm(v) on a 1-D float vector, at a third of its cost
        c[i] = radius / max(math.sqrt(v.dot(v)), 1e-300)
        # the very draw of rng.choice((-1.0, 1.0)), at a sixth of its cost
        y[i] = (-1.0, 1.0)[rng.integers(2)]
    X *= c[:, None]
    return X, y


def _neighbor(spec: ObjectiveSpec, S: Dataset, rng: np.random.Generator) -> Dataset:
    """Neighboring dataset: one uniformly chosen record replaced by a fresh one.

    The neighbor relation is symmetric; replacing the fresh record back
    recovers S, so each sampled pair covers both replacement directions.
    """
    i = int(rng.integers(S.n))
    (x,), (y,) = _fresh_rows(spec, S.d, 1, rng)
    return S.replace_record(i, x, y)


def _solve_with_neighbors(spec: ObjectiveSpec, S: Dataset, neighbors: list,
                          tolerance: float):
    """Solve S and its neighbors in one :func:`solve_erm` block.

    Returns S's weights and, per neighbor, its weights or None where its
    column stayed above ``tolerance``. A ConvergenceError on S's own column
    propagates.
    """
    try:
        report = solve_erm(spec, [S, *neighbors], tolerance)
    except ConvergenceError as exc:
        report = exc.report
        if report.residuals[0] > tolerance:
            raise
    converged = report.residuals <= tolerance
    W = report.weights
    return W[:, 0], [w if ok else None for w, ok in zip(W.T[1:], converged[1:])]


def _max_loss_gap(spec: ObjectiveSpec, w_a: np.ndarray, w_b: np.ndarray,
                  X: np.ndarray, y: np.ndarray) -> float:
    """max_i |loss(w_a; x_i, y_i) - loss(w_b; x_i, y_i)| over the rows of X, in one batch.

    Labels are checked as :func:`per_example_loss` checks them; no rows give 0.
    """
    y = np.asarray(y, dtype=float)
    if spec.loss_kind == "logistic" and not np.all((y == -1.0) | (y == 1.0)):
        raise ValueError(f"logistic loss needs y in {{-1, +1}}, got {np.unique(y)}")
    losses = _loss_values(spec, np.column_stack([w_a, w_b]), X, y[:, None])
    return float(np.max(np.abs(losses[:, 0] - losses[:, 1]), initial=0.0))


def empirical_sensitivity(spec: ObjectiveSpec, S: Dataset, trials: int = 200,
                          seed: int = 0, tolerance: float = 1e-9) -> OracleReport:
    """Max observed ||w_S - w_S'|| over sampled neighbors vs. the closed-form bounds.

    Compares against the strong-convexity bound sqrt(2 beta / lambda_sc)
    and, in L2 mode, the direct 4 L kappa / (n lambda) bound; passes only
    if every sampled pair respects every applicable bound and at most 1%
    of the solves failed. S and the sampled neighbors are solved in one
    block, (trials + 1)*n*d floats.
    """
    # an oracle that samples nothing would pass empty
    _require("trials", trials, *_COUNT)
    rng = derive_rng(seed, 21)
    base, trained = _solve_with_neighbors(
        spec, S, [_neighbor(spec, S, rng) for _ in range(trials)], tolerance)
    cert = spec_cert(spec, S.n)
    sc_bound = sensitivity_via_strong_convexity(cert)
    direct = (sensitivity_l2_direct(spec.L, spec.kappa, S.n, strong_convexity_constant(spec))
              if spec.penalty == "l2" else None)

    found = [float(np.linalg.norm(base - w)) for w in trained if w is not None]
    worst = max(found, default=0.0)
    failures = len(trained) - len(found)

    bound = sc_bound if direct is None else min(sc_bound, direct)
    passed = worst <= bound and failures <= trials * 0.01
    return OracleReport(
        name="sensitivity",
        bound_value=bound,
        empirical_value=worst,
        trials=trials,
        margin=bound - worst,
        passed=passed,
        details={
            "strong_convexity_bound": sc_bound,
            "direct_bound": direct,
            "solver_failures": failures,
            "bound_ratio": worst / bound if bound > 0 else float("nan"),
        },
    )


def empirical_stability(spec: ObjectiveSpec, S: Dataset, trials: int = 200,
                        probes: int = 50, seed: int = 0,
                        tolerance: float = 1e-9) -> OracleReport:
    """Max observed per-example loss change over neighbors vs. the beta constant.

    Probes both in-sample points and fresh kappa-bounded points, reported
    separately; the verdict uses the larger of the two.

    Each neighbor is drawn followed by its probes, then S and every
    neighbor are solved in one block of (trials + 1)*n*d floats; a neighbor
    whose column fails to converge counts as a solver failure and its
    probes go unscored.
    """
    _require_each(_COUNT, trials=trials, probes=probes)
    rng = derive_rng(seed, 22)
    draws = []
    for _ in range(trials):
        Sp = _neighbor(spec, S, rng)
        idx = rng.choice(S.n, size=min(probes, S.n), replace=False)
        draws.append((Sp, idx, _fresh_rows(spec, S.d, probes, rng)))
    base, trained = _solve_with_neighbors(spec, S, [Sp for Sp, _, _ in draws], tolerance)
    beta = spec_cert(spec, S.n).beta

    worst_in = worst_fresh = 0.0
    failures = 0
    for w, (_, idx, fresh) in zip(trained, draws):
        if w is None:
            failures += 1
            continue
        worst_in = max(worst_in, _max_loss_gap(spec, base, w, S.features[idx], S.labels[idx]))
        worst_fresh = max(worst_fresh, _max_loss_gap(spec, base, w, *fresh))

    worst = max(worst_in, worst_fresh)
    passed = worst <= beta and failures <= trials * 0.01
    return OracleReport(
        name="stability",
        bound_value=beta,
        empirical_value=worst,
        trials=trials,
        margin=beta - worst,
        passed=passed,
        details={
            "in_sample_max": worst_in,
            "fresh_point_max": worst_fresh,
            "solver_failures": failures,
        },
    )


def empirical_privacy_error(spec: ObjectiveSpec, S: Dataset, epsilon: float,
                            draws: int = 10_000, seed: int = 0,
                            tolerance: float = 1e-9) -> OracleReport:
    """Monte-Carlo mean of |L_priv - L| vs. the (L d / eps) sqrt(2 beta / lambda_sc) bound.

    Noise is per-coordinate Laplace at the strong-convexity sensitivity
    over epsilon, the mechanism the bound is stated for. Passes when the
    observed mean is below the bound plus three Monte-Carlo standard
    errors; the standard error needs ``draws >= 2``.
    """
    _require("draws", draws, *_at_least(2))
    base = solve_erm(spec, S, tolerance)
    cert = spec_cert(spec, S.n)
    noise = Noise(sensitivity_via_strong_convexity(cert) / epsilon)
    bound = privacy_error_bound(spec.L, S.d, epsilon, cert)

    rng = derive_rng(seed, 23)
    W, y = base.weights[None, :], S.labels[:, None]
    W_priv = perturb(np.broadcast_to(W, (draws, S.d)), noise, rng)
    L_base = float(_loss_values(spec, W.T, S.features, y).mean(axis=0)[0])
    L_priv = _loss_values(spec, W_priv.T, S.features, y).mean(axis=0)
    gaps = np.abs(L_priv - L_base)
    emp_mean = float(gaps.mean())
    se = float(gaps.std(ddof=1) / math.sqrt(draws))
    passed = emp_mean <= bound + 3.0 * se
    return OracleReport(
        name="privacy_error",
        bound_value=bound,
        empirical_value=emp_mean,
        trials=draws,
        margin=bound - emp_mean,
        passed=passed,
        details={"epsilon": epsilon, "noise_scale": noise.scale, "mc_stderr": se},
    )


def privacy_error_scaling(spec: ObjectiveSpec, S: Dataset, epsilons,
                          draws: int = 10_000, seed: int = 0) -> dict:
    """Log-log slope of the Monte-Carlo privacy error against epsilon."""
    means = []
    for j, eps in enumerate(epsilons):
        rep = empirical_privacy_error(spec, S, eps, draws=draws, seed=seed + 1000 * j)
        means.append(rep.empirical_value)
    x = np.log(np.asarray(epsilons, dtype=float))
    y = np.log(np.asarray(means))
    slope = float(np.polyfit(x, y, 1)[0])
    return {"epsilons": list(epsilons), "means": means, "slope": slope}


def _central_difference(f, w: np.ndarray, h: float) -> np.ndarray:
    """Central finite-difference gradient of the scalar function f at w."""
    g = np.empty(w.shape[0])
    for j in range(w.shape[0]):
        e = np.zeros(w.shape[0])
        e[j] = h
        g[j] = (f(w + e) - f(w - e)) / (2 * h)
    return g


def gradient_check(spec: ObjectiveSpec, n_fixtures: int = 100, seed: int = 0,
                   h: float = 1e-6, d: int = 5, tol: float = 1e-5) -> OracleReport:
    """Analytic gradients vs. central finite differences on random fixtures.

    Checks both the per-example smooth gradient and the full smooth
    objective gradient on small random datasets; the report value is the
    max relative error seen.
    """
    rng = derive_rng(seed, 24)
    worst = 0.0
    for _ in range(n_fixtures):
        w = rng.standard_normal(d)
        (x,), (y,) = _fresh_rows(spec, d, 1, rng)
        Sf = Dataset(*_fresh_rows(spec, d, int(rng.integers(3, 8)), rng))
        for ga, f in ((per_example_grad(spec, w, x, y),
                       lambda v: per_example_loss(spec, v, x, y)),
                      (gradient(spec, w, Sf), lambda v: smooth_objective(spec, v, Sf))):
            gf = _central_difference(f, w, h)
            worst = max(worst, float(np.linalg.norm(ga - gf) / max(np.linalg.norm(ga), 1e-8)))
    return OracleReport(
        name="gradients",
        bound_value=tol,
        empirical_value=worst,
        trials=2 * n_fixtures,
        margin=tol - worst,
        passed=worst < tol,
        details={"h": h, "d": d},
    )


def flip_rate_check(T: float, w_i: float, noise: Noise, draws: int = 100_000,
                    seed: int = 0, sigmas: float = 3.0) -> OracleReport:
    """Monte-Carlo feature-decision flip rate vs. the closed-form probability.

    Draws ``noise`` (the flip lemma's, ``features.lemma_noise``) and counts
    actual decision flips. For w_i = 0 the observed rate matches the formula
    exactly in distribution; for 0 < |w_i| the formula ignores sign-crossing
    events and the report quantifies the discrepancy instead of hiding it.
    """
    _require("draws", draws, *_COUNT)
    predicted = flip_probability(T, w_i, noise)
    noisy = perturb(np.broadcast_to(w_i, draws), noise, derive_rng(seed, 25))
    flips = select_features(noisy, T) != select_features(w_i, 0.0)
    observed = float(np.mean(flips))
    se = math.sqrt(max(predicted * (1 - predicted), 1e-12) / draws)
    gap = abs(observed - predicted)
    passed = gap <= sigmas * se
    return OracleReport(
        name="flip_rate",
        bound_value=predicted,
        empirical_value=observed,
        trials=draws,
        margin=sigmas * se - gap,
        passed=passed,
        details={"T": T, "w_i": w_i, "epsilon": noise.epsilon, "mc_stderr": se,
                 "noise_scale": noise.scale},
    )


def empirical_sgd_stability(spec: ObjectiveSpec, S: Dataset, cfg: SgdConfig,
                            trials: int = 20, probes: int = 25,
                            seed: int = 0) -> OracleReport:
    """Observed uniform stability of an SGD configuration (coupled runs).

    Draws each sampled neighbor followed by its fresh probe points, then
    trains S and every neighbor in one :func:`sgd_run` block, so all runs
    share the batch order and the per-step dropout streams, and records
    the max loss difference between the S column and each neighbor's
    column over that neighbor's probes. There is no closed-form constant
    here; the report's bound field repeats the empirical value and the
    result is meant for directional comparisons across knob settings.
    """
    _require_each(_COUNT, trials=trials, probes=probes)
    rng = derive_rng(seed, 26)
    pairs = [(_neighbor(spec, S, rng), _fresh_rows(spec, S.d, probes, rng))
             for _ in range(trials)]
    W = sgd_run(spec, [S, *(Sp for Sp, _ in pairs)], cfg).weights
    worst = max((_max_loss_gap(spec, W[:, 0], W[:, j], *rows)
                 for j, (_, rows) in enumerate(pairs, start=1)), default=0.0)
    return OracleReport(
        name="sgd_stability",
        bound_value=worst,
        empirical_value=worst,
        trials=trials,
        margin=0.0,
        passed=True,
        details={"steps_T": cfg.steps_T, "batch_size_b": cfg.batch_size_b,
                 "dropout_rate_s": cfg.dropout_rate_s,
                 "clip_bound_G": cfg.clip_bound_G},
    )
