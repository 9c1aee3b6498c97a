"""Brute-force oracles that empirically stress every closed-form bound.

Each oracle draws S and its sampled neighbors (one record swapped for a
fresh one) into one stack with ``_neighbors``, trains that stack (one
``solve_erm`` call per grid of objectives to ``SOLVE_TOLERANCE``, well
below the margins being asserted, or one coupled ``sgd_run``), and
compares the observed quantity against its bound. A stack of m datasets
of shape (n, d) holds m*n*d floats. Like ``privacy.release``,
``_neighbors`` refuses an S with a row above kappa, the premise of every
bound.
Sampling gives a sound one-sided check: an empirical value below the bound
is necessary for the bound's correctness, not sufficient. Oracles never
share random streams with the mechanisms they test, and every report is
reproducible from (inputs, seed).

Fresh records (neighbors' replacements, probe points and gradient-check
fixtures) all go through one writer, ``_write_records``: record by record,
in a fixed order (normal direction, radius uniform, label), into blocks
the caller owns, so a block of k records is the stream of k single-record
draws. The order is fixed because the benchmark reference pins
SGD-stability values drawn from it. The direction is
``rng.standard_normal(out=row)``. The radius uniform and the label come
from the bit generator's ``ctypes`` interface: ``next_double``, and the top
bit of ``next_uint32``. Those are the very words ``rng.random()`` and
``rng.integers(2)`` consume, PCG64's cached upper half-word included, so
the stream is the one the Generator's methods draw, without their
per-call overhead. The writer leaves each direction raw; one batched
norm-and-scale pass, ``_scale_rows``, then puts every row of a block at
its radius. ``_neighbors`` writes every neighbor's record and probes, and
``gradient_check`` every fixture's rows, into one block each, so a call
pays that pass's fixed cost once, not once per record.

An oracle's draws (its neighbors, probe indices and fresh probe rows) read
(kappa, S, trials, probes, seed), never lambda. So the sensitivity and
stability oracles take a grid: a sequence of ``ObjectiveSpec``s that share
kappa and the loss kind. A call draws once, and every spec of its grid is
scored on that draw: S and the neighbors are stacked once, and the whole
grid is trained in one ``solve_erm`` call, so the curvature bound's Gram
eigenvalues are taken once per grid and each gradient reads the stack
once for every spec. The SGD-stability oracle takes one config per call
and draws inside it. Calls with the same seed draw the same neighbors, so the
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

``gradient_check`` takes its central differences the same way: it draws
every fixture first, and a fixture's 2d difference points are one (2d, d)
block. The full objective's points and gradients are scored in one call
per fixture size, on a stack of that size's fixtures, whose every slice
runs the dot or matrix-vector product a lone point's call runs. ``X @ V.T``
would be one gemm, which rounds differently from those.
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
    _check_kappa,
    _check_labels,
    _grid_of,
    _loss_values,
    _require,
    _require_each,
    _row_norms,
    _Stack,
    gradient,
    per_example_grad,
    per_example_loss,
    smooth_objective,
)
from .optimizer import ConvergenceError, SgdConfig, _spec_report, sgd_run, solve_erm
from .privacy import Noise, OracleReport, _count_blocks, perturb
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


def _write_records(spec: ObjectiveSpec, rng: np.random.Generator, X: np.ndarray,
                   y: np.ndarray, radius: np.ndarray) -> None:
    """Draw len(X) fresh records into the caller's blocks, record by record.

    Row i of the (k, d) ``X`` gets its raw normal direction, ``radius[i]``
    its radius and ``y[i]`` its +/-1 label, in the fixed per-record order of
    the module docstring; :func:`_scale_rows` then puts every direction at
    its radius. Every fresh record of the module goes through this one
    writer. The radius uniform and the label are bit generator words, and
    those calls skip the generator's lock, so ``rng`` must not be drawn
    from by another thread.
    """
    bits = rng.bit_generator.ctypes
    next_double, next_uint32, state = bits.next_double, bits.next_uint32, bits.state
    power = 1.0 / X.shape[-1]
    for i, v in enumerate(X):
        rng.standard_normal(out=v)
        # the very double of rng.random(), at half its cost
        radius[i] = spec.kappa * next_double(state) ** power
        # rng.integers(2) is Lemire's bounded draw on one 32-bit word, which
        # for a range of 2 is the word's top bit; PCG64 serves the word from
        # the same cached upper half either way
        y[i] = (-1.0, 1.0)[next_uint32(state) >> 31]


def _scale_rows(X: np.ndarray, radius: np.ndarray) -> None:
    """Scale every raw direction of :func:`_write_records` to its radius, in place."""
    X *= (radius / np.maximum(_row_norms(X), 1e-300))[..., None]


def _neighbors(spec: ObjectiveSpec, S: Dataset, trials: int, rng: np.random.Generator,
               in_sample: int = 0, fresh: int = 0) -> tuple:
    """(stack, probe indices, fresh probe rows, their labels) of S and ``trials`` neighbors.

    The stack holds S, then each neighbor: S with one uniformly chosen record swapped
    for a fresh one (swapping back recovers S, so a pair covers both directions). Each
    draws its index, its record, ``min(in_sample, n)`` distinct probe indices, then
    ``fresh`` probe rows. S's type and its rows against kappa are checked before any
    draw. Every neighbor's record and probe rows are written into one block, scaled once.
    """
    _check_kappa(spec, S)
    X, y = (np.repeat(a[None], trials + 1, axis=0) for a in (S.features, S.labels[:, None]))
    idx = np.empty((trials, min(in_sample, S.n)), dtype=np.int64)
    # row 0 of each neighbor's slice is its swapped record, the rest its probes
    rows = np.empty((trials, 1 + fresh, S.d))
    labels, radius = np.empty((2, trials, 1 + fresh))
    swapped = np.empty(trials, dtype=np.int64)
    for t in range(trials):
        swapped[t] = rng.integers(S.n)
        _write_records(spec, rng, rows[t, :1], labels[t, :1], radius[t, :1])
        if idx.shape[1]:  # a size-0 choice draws nothing, at a full call's cost
            idx[t] = rng.choice(S.n, size=idx.shape[1], replace=False)
        _write_records(spec, rng, rows[t, 1:], labels[t, 1:], radius[t, 1:])
    _scale_rows(rows, radius)
    neighbor = np.arange(1, trials + 1)
    X[neighbor, swapped], y[neighbor, swapped, 0] = rows[:, 0], labels[:, 0]
    return _Stack(X, y), idx, rows[:, 1:], labels[:, 1:]


def _grid(specs: Sequence[ObjectiveSpec]) -> tuple:
    """``specs`` as a tuple, once the grid is fit to share one draw and one solve.

    The draw reads kappa, so every spec needs the same kappa, and the one
    ``solve_erm`` call steps one loss kind. Checked before any draw.
    """
    specs = _grid_of(specs)
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

    The grid solves ``block`` (S, then its ``trials`` neighbors) in one
    :func:`solve_erm` to ``SOLVE_TOLERANCE``; a spec's neighbor column left
    above it is a solver failure of that spec's report, and a failure on
    S's own column raises. ``score(spec, base, W_kept, kept)`` takes S's
    weights, the converged neighbors' weight rows and the (trials,) mask
    that picks them, and returns (bound, worst, details). A report passes
    when worst <= bound and at most 1% of its solves failed.
    """
    try:
        solved = solve_erm(specs, block, SOLVE_TOLERANCE)
    except ConvergenceError as exc:
        solved = exc.report
        if any(_spec_report(solved, spec, j).residuals[0, 0] > SOLVE_TOLERANCE  # S's own
               for j, spec in enumerate(specs)):
            raise
    reports = []
    for j, spec in enumerate(specs):
        own = _spec_report(solved, spec, j)
        W = own.weights[..., 0]  # S's weights, then each neighbor's
        kept = own.residuals[1:, 0] <= SOLVE_TOLERANCE
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
    floats, and the grid solved as one block.
    """
    # an oracle that samples nothing would pass empty
    _require("trials", trials, *_COUNT)
    specs = _grid(specs)
    block, *_ = _neighbors(specs[0], S, trials, derive_rng(seed, 21))

    def score(spec, base, W, kept):
        cert = spec_cert(spec, S.n)
        sc_bound = sensitivity_via_strong_convexity(cert)
        direct = sensitivity_l2_direct(spec.L, S.n, cert.lambda_sc)
        bound = min(sc_bound, direct)
        worst = max(_row_norms(base - W).tolist(), default=0.0)
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

    Each neighbor is drawn followed by its probes into one stack of S and
    every neighbor, (trials + 1)*n*d floats, with the grid solved as one
    block; a neighbor whose column fails to converge counts as a solver
    failure of that spec, and its probes go unscored.
    """
    _require_each(_COUNT, trials=trials, probes=probes)
    specs = _grid(specs)
    block, idx, fresh_X, fresh_y = _neighbors(specs[0], S, trials, derive_rng(seed, 22),
                                              in_sample=probes, fresh=probes)

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
    """Log-log slope of the Monte-Carlo privacy error over two or more distinct epsilons."""
    epsilons = tuple(epsilons)  # each finite and > 0, checked before any solve or draw
    for eps in epsilons:
        _require("epsilon", eps, *_POSITIVE)
    _require("epsilons", epsilons, lambda e: len(set(e)) >= 2,
             "two or more distinct values", tuple)
    means = []
    for j, eps in enumerate(epsilons):
        rep = empirical_privacy_error(spec, S, eps, draws=draws, seed=seed + 1000 * j)
        means.append(rep.empirical_value)
    x = np.log(np.asarray(epsilons, dtype=float))
    y = np.log(np.asarray(means))
    slope = float(np.polyfit(x, y, 1)[0])
    return {"epsilons": list(epsilons), "means": means, "slope": slope}


def gradient_check(spec: ObjectiveSpec, n_fixtures: int = 100,
                   seed: int = 0) -> OracleReport:
    """Analytic gradients vs. central finite differences on random fixtures.

    Checks both the per-example smooth gradient and the full smooth
    objective gradient on small random datasets in d = 5, by central
    differences of step h = 1e-6; the report value is the max relative
    error seen, and the check passes below 1e-5.

    Every fixture is drawn first, in the per-fixture stream order (its
    point w, its record, its row count in [3, 8), its rows), through one
    writer into one block of records, scaled once. A fixture's 2d
    difference points are the (2d, d) block ``[w + hE; w - hE]``. The
    per-example half takes one :func:`per_example_grad` and one
    :func:`per_example_loss` call per fixture, on that block. The full half
    takes one :func:`gradient` and one :func:`smooth_objective` call per
    fixture size, on a stack of that size's fixtures (each repeated 2d
    times for the objective). Every slice of those products runs the dot or
    matrix-vector product a lone fixture's lone point runs, so the report
    is the one a point-at-a-time loop gives.
    """
    _require("n_fixtures", n_fixtures, *_COUNT)
    h, d, tol = 1e-6, 5, 1e-5
    rng = derive_rng(seed, 24)
    W = np.empty((n_fixtures, d))
    # a fixture's record at rows[start], its k <= 7 rows right after it
    rows = np.empty((8 * n_fixtures, d))
    labels, radius = np.empty((2, 8 * n_fixtures))
    starts, sizes, at = [], [], 0
    for w in W:
        rng.standard_normal(out=w)
        _write_records(spec, rng, *(a[at:at + 1] for a in (rows, labels, radius)))
        k = int(rng.integers(3, 8))
        _write_records(spec, rng, *(a[at + 1:at + 1 + k] for a in (rows, labels, radius)))
        starts.append(at)
        sizes.append(k)
        at += 1 + k
    _scale_rows(rows[:at], radius[:at])

    step = h * np.eye(d)
    V = np.concatenate([W[:, None] + step, W[:, None] - step], axis=1)
    # [per-example, full] analytic gradients and difference-point values
    ga, values = np.empty((2, n_fixtures, d)), np.empty((2, n_fixtures, 2 * d))
    for f, start in enumerate(starts):
        x, y = rows[start], labels[start]
        ga[0, f] = per_example_grad(spec, W[f], x, y)
        values[0, f] = per_example_loss(spec, V[f], x, y)
    # sorted(set()), as np.unique would import numpy.ma mid-pass
    for k in sorted(set(sizes)):
        group = [f for f, size in enumerate(sizes) if size == k]
        at_k = np.array([starts[f] for f in group])[:, None] + np.arange(1, k + 1)
        fixtures = _Stack(rows[at_k], labels[at_k][:, :, None])
        ga[1, group] = gradient(spec, W[group][:, :, None], fixtures)[..., 0]
        copies = _Stack(*(np.repeat(a, 2 * d, axis=0)
                          for a in (fixtures.features, fixtures.labels)))
        values[1, group] = smooth_objective(spec, V[group].reshape(-1, d, 1),
                                            copies).reshape(len(group), 2 * d)
    gf = (values[..., :d] - values[..., d:]) / (2 * h)
    errors = _row_norms(ga - gf) / np.maximum(_row_norms(ga), 1e-8)
    # max() from 0.0 over each fixture's two errors in turn, as a fixture loop takes it
    worst = max([0.0, *errors.T.ravel().tolist()])
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
    actual decision flips, block by block as ``privacy.dp_micro_check``
    counts its releases, so a call holds one block whatever ``draws``; the
    check passes within three Monte-Carlo
    standard errors of the formula. For w_i = 0 the observed rate matches
    the formula exactly in distribution; for 0 < |w_i| the formula ignores
    sign-crossing events and the report quantifies the discrepancy instead
    of hiding it.
    """
    _require("draws", draws, *_COUNT)
    predicted = flip_probability(T, w_i, noise)
    rng, decision = derive_rng(seed, 25), select_features(w_i, 0.0)
    flips = _count_blocks(
        draws, lambda n: perturb(np.broadcast_to(w_i, n), noise, rng),
        lambda noisy: np.count_nonzero(select_features(noisy, T) != decision))
    observed = float(flips / draws)  # the bool mean: an exact count, one rounded divide
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

    Draws each sampled neighbor followed by its fresh probe points into one
    stack with S, trained in one :func:`sgd_run`, so all runs share the
    batch order and the per-step dropout streams, and records the max loss
    difference between S's weights and each neighbor's over that
    neighbor's probes. There is no closed-form constant here; the report's
    bound field repeats the empirical value and the result is meant for
    directional comparisons across knob settings: a call takes one config,
    and calls with the same seed draw the same neighbors and probes, so two
    settings are compared on one sample.
    """
    _require_each(_COUNT, trials=trials, probes=probes)
    block, _, X, y = _neighbors(spec, S, trials, derive_rng(seed, 26), fresh=probes)
    W = sgd_run(spec, block, cfg)[..., 0]
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
