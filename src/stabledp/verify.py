"""Brute-force oracles that empirically stress every closed-form bound.

Each oracle samples neighboring datasets (one record swapped for a fresh
one), stacks S and every sampled neighbor with ``model._stack`` and trains
that one stack (one ``solve_erm`` call per objective to ``SOLVE_TOLERANCE``,
well below the margins being asserted, or one coupled ``sgd_run``), and
compares the observed quantity against its bound. A stack of m datasets of
shape (n, d) holds m*n*d floats.
Sampling gives a sound one-sided check: an empirical value below the bound
is necessary for the bound's correctness, not sufficient. Oracles never
share random streams with the mechanisms they test, and every report is
reproducible from (inputs, seed).

Fresh records (neighbors' replacements and probe points) come from one
sampler, ``_fresh_rows``: record by record, in a fixed order (normal
direction, radius uniform, label), into one preallocated block, so a block
of k records is the stream of k single-record draws. The order is fixed
because the benchmark reference pins SGD-stability values drawn from it.
The direction is ``rng.standard_normal(out=row)``. The radius uniform and
the label come from the bit generator's ``ctypes`` interface:
``next_double``, and the top bit of ``next_uint32``. Those are the very
words ``rng.random()`` and ``rng.integers(2)`` consume, PCG64's cached
upper half-word included, so the stream is the one the Generator's
methods draw, without their per-call overhead.

An oracle's draws (its neighbors, probe indices and fresh probe rows) read
(kappa, S, trials, probes, seed), never lambda. So the sensitivity and
stability oracles take a grid: a sequence of ``ObjectiveSpec``s that share
kappa. A call draws once, and every spec of its grid is scored on that
draw: S and the neighbors are stacked once, so the curvature bound's Gram
eigenvalues are taken once per grid, and each spec gets its own
``solve_erm``. The SGD-stability oracle takes one config per call and
draws inside it. Calls with the same seed draw the same neighbors, so the
reports of two calls (two SGD knob settings, say) stay paired.

The sensitivity and stability oracles bring only their draws and scores
to one solve-and-verdict loop, ``_grid_reports``, which counts the solver
failures and judges every report by one rule.

Every loss an oracle takes comes from ``model._loss_values``, the one loss
kernel. ``_loss_gaps`` scores every (S, neighbor) pair's probes in one such
call on a (t, k, d) probe stack and a (t, d, 2) stack of weight pairs;
its batched matmul runs the per-slice product of one pair's
``X @ column_stack([w_S, w_S'])``, so every gap is the float a
pair-at-a-time loop gives (``np.einsum`` rounds differently).

``gradient_check`` takes its central differences the same way: a
fixture's 2d difference points are one (2d, d) block, scored in one
batched product per function, whose every slice runs the dot or
matrix-vector product a lone point's call runs. ``X @ V.T`` would be one
gemm, which rounds differently from those.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .features import flip_probability, select_features
from .model import (
    _COUNT,
    _POSITIVE,
    Dataset,
    ObjectiveSpec,
    _at_least,
    _Stack,
    _check_labels,
    _loss_values,
    _require,
    _require_each,
    _stack,
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

# the gradient-norm tolerance of every oracle solve
SOLVE_TOLERANCE = 1e-9


def _fresh_rows(spec: ObjectiveSpec, d: int, k: int, rng: np.random.Generator):
    """k fresh records as (X, y): kappa-bounded rows (uniform in the ball), +/-1 labels.

    Drawn in the fixed per-record order of the module docstring, the radius
    uniform and the label as bit generator words. Those calls skip the
    generator's lock, so ``rng`` must not be drawn from by another thread.
    """
    X, y, c = np.empty((k, d)), np.empty(k), np.empty(k)
    bits = rng.bit_generator.ctypes
    next_double, next_uint32, state = bits.next_double, bits.next_uint32, bits.state
    for i, v in enumerate(X):
        rng.standard_normal(out=v)
        # the very double of rng.random(), at half its cost
        radius = spec.kappa * next_double(state) ** (1.0 / d)
        # bit-identical to np.linalg.norm(v) on a 1-D float vector, at a third of its cost
        c[i] = radius / max(math.sqrt(v.dot(v)), 1e-300)
        # rng.integers(2) is Lemire's bounded draw on one 32-bit word, which
        # for a range of 2 is the word's top bit; PCG64 serves the word from
        # the same cached upper half either way
        y[i] = (-1.0, 1.0)[next_uint32(state) >> 31]
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


def _grid(specs: Sequence[ObjectiveSpec]) -> tuple:
    """``specs`` as a tuple, once the grid is fit to share one draw.

    The draw reads kappa, so every spec needs the same kappa. Checked
    before any draw.
    """
    specs = tuple(specs)
    _require("specs", specs, len, "a non-empty sequence of ObjectiveSpecs", tuple)
    _require("the specs' kappas", tuple(spec.kappa for spec in specs),
             lambda k: len(set(k)) == 1, "equal, as the draw reads kappa", tuple)
    return specs


def _loss_gaps(spec: ObjectiveSpec, w_base: np.ndarray, W: np.ndarray,
               X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per pair t, max_i |loss(w_base; x_ti, y_ti) - loss(W[t]; x_ti, y_ti)|.

    ``X`` is a (t, k, d) stack of probe rows and ``y`` their (t, k) labels,
    one slice per row of the (t, d) ``W``; no rows give 0. The losses of
    each pair come from one ``model._loss_values`` call on a (t, d, 2)
    stack of (w_base, W[t]) pairs, whose batched ``np.matmul`` runs the
    per-slice product of a lone ``X[t] @ column_stack([w_base, W[t]])``,
    so each gap is the float a pair-at-a-time loop gives. Labels are
    checked as :func:`per_example_loss` checks them.
    """
    _check_labels(spec, y, "y")
    pairs = np.empty(W.shape + (2,))
    pairs[:, :, 0] = w_base
    pairs[:, :, 1] = W
    losses = _loss_values(spec, pairs, X, y[:, :, None])
    return np.max(np.abs(losses[..., 0] - losses[..., 1]), axis=1, initial=0.0)


def _grid_reports(name: str, specs: tuple, block: _Stack, trials: int,
                  score) -> list[OracleReport]:
    """The one solve-and-verdict loop: one report per spec, in grid order.

    Each spec solves ``block`` (S, then its ``trials`` neighbors) in one
    :func:`solve_erm` to ``SOLVE_TOLERANCE``; a neighbor column left above
    it is a solver failure, and a failure on S's own column raises.
    ``score(spec, base, W_kept, kept)`` takes S's weights, the converged
    neighbors' weight rows and the (trials,) mask that picks them, and
    returns (bound, worst, details). A report passes when worst <= bound
    and at most 1% of the solves failed.
    """
    reports = []
    for spec in specs:
        try:
            solved = solve_erm(spec, block, SOLVE_TOLERANCE)
        except ConvergenceError as exc:
            solved = exc.report
            if solved.residuals[0, 0] > SOLVE_TOLERANCE:
                raise
        W = solved.weights[..., 0]
        kept = solved.residuals[1:, 0] <= SOLVE_TOLERANCE
        bound, worst, details = score(spec, W[0], W[1:][kept], kept)
        failures = trials - int(kept.sum())
        reports.append(OracleReport(
            name=name, bound_value=bound, empirical_value=worst, trials=trials,
            margin=bound - worst, passed=worst <= bound and failures <= trials * 0.01,
            details={**details, "solver_failures": failures}))
    return reports


def empirical_sensitivity(specs: Sequence[ObjectiveSpec], S: Dataset,
                          trials: int = 200, seed: int = 0) -> list[OracleReport]:
    """Max observed ||w_S - w_S'|| over sampled neighbors vs. the closed-form bounds.

    One report per spec of the grid ``specs``, in grid order, all from one
    draw of neighbors. Compares against the strong-convexity bound
    sqrt(2 beta / lambda_sc) and the direct replace-one bound
    2 L / (n lambda_sc), which holds for either penalty; passes only if
    every sampled pair respects both bounds and at most 1% of the solves
    failed. S and the sampled neighbors are stacked once, (trials + 1)*n*d
    floats, and solved as one block per spec.
    """
    # an oracle that samples nothing would pass empty
    _require("trials", trials, *_COUNT)
    specs = _grid(specs)
    rng = derive_rng(seed, 21)
    block = _stack([S, *(_neighbor(specs[0], S, rng) for _ in range(trials))])

    def score(spec, base, W, kept):
        sc_bound = sensitivity_via_strong_convexity(spec_cert(spec, S.n))
        direct = sensitivity_l2_direct(spec.L, S.n, strong_convexity_constant(spec))
        bound = min(sc_bound, direct)
        worst = max((float(np.linalg.norm(base - w)) for w in W), default=0.0)
        return bound, worst, {"strong_convexity_bound": sc_bound, "direct_bound": direct,
                              "bound_ratio": worst / bound if bound > 0 else float("nan")}

    return _grid_reports("sensitivity", specs, block, trials, score)


def empirical_stability(specs: Sequence[ObjectiveSpec], S: Dataset, trials: int = 200,
                        probes: int = 50, seed: int = 0) -> list[OracleReport]:
    """Max observed per-example loss change over neighbors vs. the beta constant.

    One report per spec of the grid ``specs``, in grid order, all from one
    draw of neighbors and probes. Probes both in-sample points and fresh
    kappa-bounded points, reported separately; the verdict uses the larger
    of the two.

    Each neighbor is drawn followed by its probes, then S and every
    neighbor are stacked once, (trials + 1)*n*d floats, and solved as one
    block per spec; a neighbor whose column fails to converge counts as a
    solver failure and its probes go unscored.
    """
    _require_each(_COUNT, trials=trials, probes=probes)
    specs = _grid(specs)
    rng = derive_rng(seed, 22)
    neighbors, idx, fresh_X, fresh_y = [], [], [], []
    for _ in range(trials):
        neighbors.append(_neighbor(specs[0], S, rng))
        idx.append(rng.choice(S.n, size=min(probes, S.n), replace=False))
        X, y = _fresh_rows(specs[0], S.d, probes, rng)
        fresh_X.append(X)
        fresh_y.append(y)
    block = _stack([S, *neighbors])
    idx, fresh_X, fresh_y = np.stack(idx), np.stack(fresh_X), np.stack(fresh_y)

    def score(spec, base, W, kept):
        rows = idx[kept]
        # max() from 0.0 over the pairs in order, as a pair-at-a-time loop takes it
        worst_in = max([0.0, *_loss_gaps(spec, base, W, S.features[rows],
                                         S.labels[rows]).tolist()])
        worst_fresh = max([0.0, *_loss_gaps(spec, base, W, fresh_X[kept],
                                            fresh_y[kept]).tolist()])
        return spec_cert(spec, S.n).beta, max(worst_in, worst_fresh), {
            "in_sample_max": worst_in, "fresh_point_max": worst_fresh}

    return _grid_reports("stability", specs, block, trials, score)


def empirical_privacy_error(spec: ObjectiveSpec, S: Dataset, epsilon: float,
                            draws: int = 10_000, seed: int = 0) -> OracleReport:
    """Monte-Carlo mean of |L_priv - L| vs. the (L d / eps) sqrt(2 beta / lambda_sc) bound.

    Noise is per-coordinate Laplace at the strong-convexity sensitivity
    over epsilon, the mechanism the bound is stated for. Passes when the
    observed mean is below the bound plus three Monte-Carlo standard
    errors; the standard error needs ``draws >= 2``.
    """
    _require("epsilon", epsilon, *_POSITIVE)
    _require("draws", draws, *_at_least(2))
    base = solve_erm(spec, S, SOLVE_TOLERANCE)
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
    """Central finite-difference gradient at w of f, which scores a block of points.

    f takes the (2d, d) block ``[w + hE; w - hE]``, E = ``np.eye(d)``, and
    returns its 2d values; row j of each half is w with coordinate j moved
    by h, the point a one-coordinate-at-a-time loop would score.
    """
    d = w.shape[0]
    step = h * np.eye(d)
    values = f(np.concatenate([w + step, w - step]))
    return (values[:d] - values[d:]) / (2 * h)


def gradient_check(spec: ObjectiveSpec, n_fixtures: int = 100,
                   seed: int = 0) -> OracleReport:
    """Analytic gradients vs. central finite differences on random fixtures.

    Checks both the per-example smooth gradient and the full smooth
    objective gradient on small random datasets in d = 5, by central
    differences of step h = 1e-6; the report value is the max relative
    error seen, and the check passes below 1e-5.

    Each fixture's 2d difference points are scored in one batched product
    per function: one :func:`per_example_loss` call on the (2d, d) block,
    and one :func:`smooth_objective` call on a stack that repeats the
    fixture 2d times, with (2d, d, 1) weights. Every slice runs the product
    a lone point's call runs, so the report is the one a point-at-a-time
    loop gives.
    """
    _require("n_fixtures", n_fixtures, *_COUNT)
    h, d, tol = 1e-6, 5, 1e-5
    rng = derive_rng(seed, 24)
    worst = 0.0
    for _ in range(n_fixtures):
        w = rng.standard_normal(d)
        (x,), (y,) = _fresh_rows(spec, d, 1, rng)
        Sf = Dataset(*_fresh_rows(spec, d, int(rng.integers(3, 8)), rng))
        copies = _Stack(np.broadcast_to(Sf.features, (2 * d, Sf.n, d)),
                        np.broadcast_to(Sf.labels[:, None], (2 * d, Sf.n, 1)))
        for ga, f in ((per_example_grad(spec, w, x, y),
                       lambda V: per_example_loss(spec, V, x, y)),
                      (gradient(spec, w, Sf),
                       lambda V: smooth_objective(spec, V[:, :, None], copies)[:, 0])):
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
                    seed: int = 0) -> OracleReport:
    """Monte-Carlo feature-decision flip rate vs. the closed-form probability.

    Draws ``noise`` (the flip lemma's, ``features.lemma_noise``) and counts
    actual decision flips; the check passes within three Monte-Carlo
    standard errors of the formula. For w_i = 0 the observed rate matches
    the formula exactly in distribution; for 0 < |w_i| the formula ignores
    sign-crossing events and the report quantifies the discrepancy instead
    of hiding it.
    """
    _require("draws", draws, *_COUNT)
    predicted = flip_probability(T, w_i, noise)
    noisy = perturb(np.broadcast_to(w_i, draws), noise, derive_rng(seed, 25))
    flips = select_features(noisy, T) != select_features(w_i, 0.0)
    observed = float(np.mean(flips))
    se = math.sqrt(max(predicted * (1 - predicted), 1e-12) / draws)
    gap = abs(observed - predicted)
    passed = gap <= 3.0 * se
    return OracleReport(
        name="flip_rate",
        bound_value=predicted,
        empirical_value=observed,
        trials=draws,
        margin=3.0 * se - gap,
        passed=passed,
        details={"T": T, "w_i": w_i, "epsilon": noise.epsilon, "mc_stderr": se,
                 "noise_scale": noise.scale},
    )


def empirical_sgd_stability(spec: ObjectiveSpec, S: Dataset, cfg: SgdConfig,
                            trials: int = 20, probes: int = 25,
                            seed: int = 0) -> OracleReport:
    """Observed uniform stability of an SGD configuration (coupled runs).

    Draws each sampled neighbor followed by its fresh probe points, then
    trains the ``model._stack`` of S and every neighbor in one
    :func:`sgd_run`, so all runs share the batch order and the per-step
    dropout streams, and records the max loss difference between S's
    weights and each neighbor's over that neighbor's probes. There is no
    closed-form constant here; the report's bound field repeats the
    empirical value and the result is meant for directional comparisons
    across knob settings: a call takes one config, and calls with the same
    seed draw the same neighbors and probes, so two settings are compared
    on one sample.
    """
    _require_each(_COUNT, trials=trials, probes=probes)
    rng = derive_rng(seed, 26)
    pairs = [(_neighbor(spec, S, rng), _fresh_rows(spec, S.d, probes, rng))
             for _ in range(trials)]
    W = sgd_run(spec, _stack([S, *(Sp for Sp, _ in pairs)]), cfg)[..., 0]
    X = np.stack([rows[0] for _, rows in pairs])
    y = np.stack([rows[1] for _, rows in pairs])
    worst = max(_loss_gaps(spec, W[0], W[1:], X, y).tolist())
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
