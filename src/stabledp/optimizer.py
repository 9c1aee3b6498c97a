"""Deterministic ERM solver and a configurable minibatch SGD engine.

Both solvers take ``S`` through one path, ``_block``: a ``Dataset`` gives
(d,) weights, and a stack of m datasets with K label columns each (S and
its neighbours, or a config's training splits with their signed
one-vs-rest labels) (m, d, K) weights.

``solve_erm`` is accelerated proximal gradient descent (FISTA with
gradient-scheme restart) at a fixed step from a certain curvature bound, so
no step is ever retried. One call solves every label column of every
dataset of its input for every spec of a grid (a lambda grid, say), each
(dataset, spec) pair at its own step, so each gradient reads a dataset's
features once for the whole grid. The L1 term is handled by
soft-thresholding so elastic-net solutions reach exact zeros, which
downstream feature selection relies on. Both solvers step on
``model.gradient`` alone, which takes a stack as it takes one dataset;
``solve_erm`` takes ``model.objective`` once per spec, at the end.

``sgd_run`` exposes the knobs that control uniform stability: step count,
step size, batch size, gradient clipping and norm-contracting dropout.
Batch order and dropout randomness come from streams derived per purpose
(and per step, for dropout) from the config seed. It
trains a stack, such as S and its neighbours, as the slices of one
iterate: every slice sees the same batch indices and the same per-step
dropout stream, which is the coupling of the uniform stability argument
(Hardt, Recht & Singer 2016), and each slice equals its own
single-dataset run bit for bit. It returns its last iterate alone: a run
of T steps certifies no residual, so it makes no ``SolveReport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    _COUNT,
    _INTEGER,
    _NONNEGATIVE,
    _POSITIVE,
    _UNIT,
    Dataset,
    ObjectiveSpec,
    _at_least,
    _check_data,
    _check_labels,
    _grid_of,
    _require,
    _Stack,
    gradient,
    objective,
    strong_convexity_constant,
)
from .rng import derive_rng

__all__ = [
    "SgdConfig",
    "SolveReport",
    "ConvergenceError",
    "solve_erm",
    "sgd_run",
    "s_dropout",
    "clip_gradient",
    "soft_threshold",
    "convergence_sensitivity_correction",
]


class ConvergenceError(RuntimeError):
    """Solver ran out of iterations; ``report`` carries the last iterate and its bounds."""

    def __init__(self, message: str, report: "SolveReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SgdConfig:
    """Minibatch SGD configuration."""

    steps_T: int
    step_size: float
    batch_size_b: int
    clip_bound_G: float | None = None
    dropout_rate_s: float | None = None
    seed: int = 0

    def __post_init__(self):
        _require("seed", self.seed, *_INTEGER)
        _require("steps_T", self.steps_T, *_at_least(0))
        _require("batch_size_b", self.batch_size_b, *_COUNT)
        _require("step_size", self.step_size, *_POSITIVE)
        if self.clip_bound_G is not None:
            _require("clip_bound_G", self.clip_bound_G, *_POSITIVE)
        if self.dropout_rate_s is not None:
            _require("dropout_rate_s", self.dropout_rate_s, *_UNIT)


@dataclass
class SolveReport:
    """Result of a ``solve_erm`` call: weights plus optimality diagnostics.

    ``final_gradient_norm`` is the gradient-mapping residual at ``weights``
    and ``loss_gap_bound`` the bound residual^2 / (2 lambda_sc) it gives on
    objective(w) - objective(w*); it feeds the sensitivity correction for
    inexact minimizers. With ``objective``, the full objective at
    ``weights``, it brackets the optimum:
    objective - loss_gap_bound <= F* <= objective.

    For a stack solve (``weights`` of shape (m, d, K)) ``iterations_used``
    counts block iterations, ``final_gradient_norm`` and ``loss_gap_bound``
    are the maxima over the (dataset, column) pairs, and ``objective`` and
    ``residuals`` hold each pair's own value, of shape (m, K), so a failed
    block tells which columns stayed above tolerance. A grid's report puts
    the grid axis after the datasets': (m, L, d, K) weights with (m, L, K)
    values, or (L, d) weights with (L,) values on one dataset, its maxima
    taken over every spec. The report of one spec is the slice of its grid
    of one (``_spec_report``): (m, d, K) weights, or (d,) weights with a
    float ``objective`` and no ``residuals`` on one dataset.
    """

    weights: np.ndarray
    final_gradient_norm: float
    iterations_used: int
    loss_gap_bound: float
    objective: float | np.ndarray
    residuals: np.ndarray | None = None

    def __post_init__(self):
        _require("final_gradient_norm", self.final_gradient_norm, *_NONNEGATIVE)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * ||.||_1: shrink toward 0, exact zeros inside [-t, t]."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _smooth_curvature(spec: ObjectiveSpec, S: _Stack) -> np.ndarray:
    """Certain upper bound on the gradient Lipschitz constant of the smooth part.

    One bound per dataset of the stack ``S``, from the stack's ``gram_top``,
    which is taken once per stack and shared by every objective solved on
    it; each bound equals the bound of its own dataset stacked alone.

    The loss curvature is at most factor * lambda_max(X^T X / n), with
    factor 1/4 for logistic and 2 for squared loss; lambda_max is padded by
    1e-9 relative, as LAPACK can round it below the true value.
    """
    factor = 0.25 if spec.loss_kind == "logistic" else 2.0
    return factor * (S.gram_top * (1.0 + 1e-9)) + 2.0 * spec.l2_coefficient


def _block(S: Dataset | _Stack):
    """The stack that a solver iterates on, with the map of its (m, ..., K)
    results back to the layout of S: a stack as it is, and a dataset as a
    (1, n, 1) stack whose results drop their first and last axes, (d,)
    weights for one model. Any other S, a list included, raises ValueError."""
    _check_data(S)
    if isinstance(S, _Stack):
        return S, lambda a: a
    return _Stack(S.features[None], S.labels[None, :, None]), lambda a: a[0, ..., 0]


def solve_erm(spec: ObjectiveSpec | Sequence[ObjectiveSpec], S: Dataset | _Stack,
              tolerance: float = 1e-8, max_iters: int = 100_000) -> SolveReport:
    """Minimize the regularized objective to a given optimality residual.

    FISTA (Beck & Teboulle 2009) at the fixed step alpha = 1/L, where L is
    the certain curvature bound of :func:`_smooth_curvature`, so no step
    is ever rejected or retried. Momentum restarts where the step turns
    against the move, <y - x+, x+ - x> > 1e-12 ||y - x+|| ||x+ - x||: the
    gradient scheme of O'Donoghue & Candes (2015), with a relative floor
    so that no decision, and so no column's path, rests on how a product
    rounds. An iteration takes one gradient; the objective is taken once
    per spec, at the returned weights. The L1 term is handled by
    soft-thresholding; with no L1 term the proximal step is the identity.

    Every input is solved as one (m, L, d, K) block: m datasets, each at its
    own step 1/L_j, by L specs, with K label columns each. A stack (the
    training splits of one config with one one-vs-rest column per class,
    or S and its neighbours stacked by ``verify._neighbors``, say) gives
    weights whose slice j is trained on the j-th dataset; its curvature
    bounds are taken once per stack. One dataset is the stack m = K = 1.
    ``spec`` is one ``ObjectiveSpec``, or a grid of specs of one loss kind
    (a lambda grid, say; see ``model._grid_of``), solved together: each
    gradient reads a dataset's X once for every spec of the grid. A grid
    puts its axis after the datasets', giving (m, L, d, K) weights, or
    (L, d) for a dataset. One spec is solved as its grid of one, and its
    report is that grid's slice by ``_spec_report``, as every per-spec
    report is: (m, d, K) weights, or (d,).

    Momentum, restart and stopping are per (dataset, spec, column), and
    each column keeps the first iterate at which it reaches ``tolerance``.
    A batched product runs each (dataset, spec) slice's own product, so
    every slice follows the path of its lone solve bit for bit, whatever
    the others do; the K columns of one slice share its products, so each
    equals a lone solve of that label column to rounding (about 1e-15).
    The block steps a live rectangle: the range from the first to the last
    dataset with a column above tolerance, a view of the stack and never a
    copy, by the range from the first to the last spec with one, a view of
    the iterates. The datasets and the specs at either end whose every
    column has converged take no more steps; a converged pair inside the
    rectangle keeps stepping, its first iterate at tolerance kept. A lambda
    grid in order usually converges from its large-lambda end, so its
    specs stop stepping at or near their own counts.

    The residual of a step x+ = prox(y - alpha grad f(y)) is the gradient
    mapping norm ||G(y)|| = ||y - x+|| / alpha at the point y the step is
    taken from (the extrapolated point included). With alpha <= 1/L and f
    lambda_sc-strongly convex, the proximal-gradient inequality gives, for
    every z, F(x+) <= F(z) + <G(y), y - z> - (alpha/2)||G(y)||^2
    - (lambda_sc/2)||y - z||^2. At z = w* the right side, maximised over
    y - z, is at most F* + ||G(y)||^2 / (2 lambda_sc), so
    ``loss_gap_bound = residual^2 / (2 lambda_sc)`` holds at the returned
    x+. Deterministic given (spec, S, tolerance): no randomness anywhere.

    A logistic solve needs every label in {-1, +1}, and a grid one loss
    kind; either raises ValueError before the first iteration otherwise.

    Raises :class:`ConvergenceError` if a column's residual is still above
    ``tolerance`` after ``max_iters`` block iterations; its message names
    each such column by one rule, its (lambda, dataset, column) triple,
    with a dataset as dataset 0 and column 0 of its (1, n, 1) stack. Its
    report, the one a converged solve would return, carries each such
    column's last iterate, with the gap bound of that iterate, and every
    column's residual, so the converged columns stay usable.
    """
    _require("tolerance", tolerance, *_POSITIVE)
    _require("max_iters", max_iters, *_COUNT)
    specs = _grid_of(spec)
    lam_sc = [strong_convexity_constant(s) for s in specs]  # raises if not strongly convex
    S, unpack = _block(S)
    _check_labels(specs[0], S.labels)
    w, residual, iterations = _fista(specs, S, tolerance, max_iters)
    report = _solve_report(specs, S, unpack, w, residual, iterations, lam_sc)
    if isinstance(spec, ObjectiveSpec):  # one spec's report is its grid of one's slice
        report = _spec_report(report, spec, 0)
    if not (residual > tolerance).any():
        return report
    failed = np.argwhere(residual.swapaxes(0, 1) > tolerance).tolist()  # spec-major
    raise ConvergenceError(
        f"no convergence after {max_iters} iterations in (lambda, dataset, column) triples "
        f"{[(specs[j].lam, r, k) for j, r, k in failed]} (residual "
        f"{report.final_gradient_norm:.3e} > tolerance {tolerance:.3e})",
        report,
    )


def _fista(specs: tuple, S: _Stack, tolerance: float, max_iters: int) -> tuple:
    """``solve_erm``'s loop on the (m, L, d, K) block of the stack S by ``specs``.

    Returns each column's first iterate at ``tolerance``, or its last one
    after ``max_iters`` iterations, with that iterate's residual, and the
    iteration count. The iterates are dropped on return, before any
    objective is taken.
    """
    m, _, K = S.labels.shape
    # the step of each (dataset, spec) pair, against its columns and weights
    alpha = 1.0 / np.maximum(np.stack([_smooth_curvature(s, S) for s in specs], axis=1),
                             1e-12)[:, :, None]
    l1 = np.array([s.l1_coefficient for s in specs])[:, None, None]
    x = np.zeros((m, len(specs), S.d, K))
    y, t = x, np.ones((m, len(specs), K))
    # per column: the first iterate at tolerance and its residual
    w_out, r_out = np.zeros_like(x), np.full(t.shape, math.inf)
    # the live rectangle: from the first to the last dataset with a column above
    # tolerance, by the first to the last such spec; a view of S, and of every
    # per-column array, which the iterates, steps and specs cover alone
    live, live_specs, cell = S, specs, (slice(0, m), slice(0, len(specs)))
    alpha_w, l1_live, shrink = alpha[..., None], l1, l1.any()
    for it in range(1, max_iters + 1):
        x_next = y - alpha_w * gradient(live_specs, y, live)
        if shrink:
            # a spec with no L1 term shrinks by 0: the identity on iterates that,
            # like its lone solve's, never hold -0.0
            x_next = soft_threshold(x_next, alpha_w * l1_live)
        step, move = x_next - y, x_next - x
        residual = np.sqrt((step * step).sum(axis=2)) / alpha
        if (residual <= tolerance).any():
            first = (residual <= tolerance) & (r_out[cell] > tolerance)
            np.copyto(w_out[cell], x_next, where=first[:, :, None])
            np.copyto(r_out[cell], residual, where=first)
            open_ = r_out > tolerance
            rows, cols = (np.flatnonzero(open_.any(axis=a)) for a in ((1, 2), (0, 2)))
            if not rows.size:
                return w_out, r_out, it
            # the converged datasets and specs at either end take no more steps
            rect = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
            if rect != cell:
                keep = tuple(slice(new.start - old.start, new.stop - old.start)
                             for new, old in zip(rect, cell))
                x_next, step, move, residual, t, alpha = (
                    a[keep] for a in (x_next, step, move, residual, t, alpha))
                cell = rect
                live = _Stack(S.features[rect[0]], S.labels[rect[0]])
                live_specs, alpha_w, l1_live = specs[rect[1]], alpha[..., None], l1[rect[1]]
                shrink = l1_live.any()
        # restart (no momentum this step) where the step turns against the move
        t = np.where(-(step * move).sum(axis=2)
                     > 1e-12 * alpha * residual * np.sqrt((move * move).sum(axis=2)), 1.0, t)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next)[:, :, None] * move
        x, t = x_next, t_next

    # the columns still above tolerance, all in the live rectangle, carry their last iterate
    open_ = r_out[cell] > tolerance
    np.copyto(w_out[cell], x, where=open_[:, :, None])
    np.copyto(r_out[cell], residual, where=open_)
    return w_out, r_out, max_iters


def _solve_report(specs: tuple, S: _Stack, unpack, w: np.ndarray, residual: np.ndarray,
                  iterations: int, lam_sc: list) -> SolveReport:
    """The report of an (m, L, d, K) block, each spec's objective taken alone on S."""
    worst = [float(np.max(residual[:, j])) for j in range(len(specs))]
    value = np.stack([objective(s, w[:, j], S) for j, s in enumerate(specs)], axis=1)
    return SolveReport(unpack(w), max(worst), iterations,
                       max(r * r / (2.0 * c) for r, c in zip(worst, lam_sc)),
                       unpack(value), unpack(residual))


def _spec_report(report: SolveReport, spec: ObjectiveSpec, j: int) -> SolveReport:
    """The report of ``spec``, spec j of the grid whose solve gave ``report``;
    every per-spec report is made here, a one-spec ``solve_erm``'s included.

    It holds copies of spec j's weights, objective and residuals and its
    worst residual with that residual's gap bound, each the value its lone
    solve reports; ``iterations_used`` stays the block's count.
    """
    if report.weights.ndim == 2:  # a dataset's grid: (L, d) weights, (L,) values
        worst = float(report.residuals[j])
        w, value, residual = report.weights[j].copy(), float(report.objective[j]), None
    else:
        w, value, residual = (a[:, j].copy() for a in (report.weights, report.objective,
                                                        report.residuals))
        worst = float(np.max(residual))
    return SolveReport(w, worst, report.iterations_used,
                       worst * worst / (2.0 * strong_convexity_constant(spec)), value, residual)


def clip_gradient(g: np.ndarray, G: float) -> np.ndarray:
    """Rescale g to norm G when ||g|| > G; direction preserved, else unchanged.

    A 2-D g is clipped row by row, each row by its own norm.
    """
    _require("G", G, *_POSITIVE)  # g * (inf / inf) would be NaN
    g = np.asarray(g, dtype=float)
    # an unclipped row is multiplied by G / G, exactly 1.0
    return g * (G / np.maximum(np.linalg.norm(g, axis=-1, keepdims=True), G))


def s_dropout(v: np.ndarray, s: float, rng: np.random.Generator) -> np.ndarray:
    """Randomly zero components of v until ||result|| <= s * ||v||.

    The contraction holds on every invocation (worst case, not in
    expectation); v = 0 returns 0 and s = 1 may return v unchanged. Each
    draw picks one of the remaining nonzero components uniformly.

    A 2-D v is dropped out row by row, each row as if it alone were passed
    with ``rng`` in its current state: coupled rows see the same random
    stream, as neighbouring SGD runs on one seed do. Rows with the same
    number c of nonzeros share one draw sequence, restarted from the one
    saved generator state: each draw zeroes one remaining rank (a row's
    k-th nonzero, in column order) in every row of the group still above
    its target, and the group stops when none is. Each norm is summed over
    a full row with zeros in place. The generator is left where the rows
    with the most nonzeros left it, after the draws their longest run took;
    for a 1-D v, after its last draw.
    """
    _require("s", s, *_UNIT)
    v = np.asarray(v, dtype=float)
    out = np.array(np.atleast_2d(v))
    target = s * np.linalg.norm(out, axis=-1)
    counts = (out != 0).sum(axis=1)
    start = rng.bit_generator.state
    for c0 in sorted(set(counts.tolist()) - {0}):
        rng.bit_generator.state = start
        rows = np.flatnonzero(counts == c0)
        # a C-ordered copy whatever the order of v: from d = 8 on, a row's
        # sum rounds by its memory layout
        block = out[rows]
        positions = np.nonzero(block)[1].reshape(rows.size, c0)  # [j, k]: row j's rank k
        live = np.flatnonzero(np.linalg.norm(block, axis=-1) > target[rows])
        ranks = list(range(c0))
        while live.size:
            rank = ranks.pop(rng.integers(len(ranks)))
            block[live, positions[live, rank]] = 0.0
            live = live[np.linalg.norm(block[live], axis=-1) > target[rows[live]]]
        out[rows] = block
    return out.reshape(v.shape)


def sgd_run(spec: ObjectiveSpec, S: Dataset | _Stack, cfg: SgdConfig) -> np.ndarray:
    """Run T steps of minibatch proximal SGD; bit-reproducible given the seed.

    Per step: draw the next without-replacement batch, compute the smooth
    gradient, clip to G if configured, apply s-dropout if configured, step,
    then soft-threshold for the L1 term. The iterate after the last step is
    returned.

    ``S`` is a dataset, giving (d,) weights, or a stack of m datasets (S
    and its neighbours by ``verify._neighbors``, say), giving (m, d, 1)
    weights whose slice j is trained on the j-th dataset. The stack is one
    coupled run: every slice takes the same batch indices from the one
    ``derive_rng(seed, 0)`` order, and its gradient row is clipped and
    dropped out by itself, with every row drawing from the step's fresh
    ``derive_rng(seed, 1, t)``. So each slice equals its own single-dataset
    run bit for bit, and a run on S with its neighbours is the paired run
    of uniform stability. Every slice starts from zero. Only the weights
    are returned: the run takes no gradient beyond its T batch gradients.
    A run trains one label column per dataset, and a logistic run needs
    every label in {-1, +1}; either raises ValueError before the first
    step otherwise.
    """
    block, unpack = _block(S)
    _require("S's label columns", block.labels.shape[2], lambda K: K == 1,
             "1, as a run trains one column per dataset", int)
    _check_labels(spec, block.labels)
    m, n, d = block.features.shape
    if cfg.batch_size_b > n:
        raise ValueError(f"batch_size_b={cfg.batch_size_b} exceeds n={n}")
    W = np.zeros((m, d, 1))  # one slice per dataset

    batch_rng = derive_rng(cfg.seed, 0)
    cursor = n
    for t in range(cfg.steps_T):
        if cursor >= n:
            # one gather per epoch; each batch below is a view of it
            order = batch_rng.permutation(n)
            X, Y = block.features[:, order], block.labels[:, order]
            cursor = 0
        batch = slice(cursor, cursor + cfg.batch_size_b)
        cursor += cfg.batch_size_b
        g = gradient(spec, W, _Stack(X[:, batch], Y[:, batch]))
        # clipping and dropout act on each dataset's gradient, a row of g[..., 0]
        if cfg.clip_bound_G is not None:
            g = clip_gradient(g[..., 0], cfg.clip_bound_G)[..., None]
        if cfg.dropout_rate_s is not None:
            g = s_dropout(g[..., 0], cfg.dropout_rate_s, derive_rng(cfg.seed, 1, t))[..., None]
        W = W - cfg.step_size * g
        if spec.l1_coefficient > 0:
            W = soft_threshold(W, cfg.step_size * spec.l1_coefficient)
        if not np.isfinite(W).all():
            raise FloatingPointError(f"non-finite iterate at step {t}")

    return unpack(W)


def convergence_sensitivity_correction(base_sensitivity: float, loss_gap_bound: float,
                                       lambda_sc: float) -> float:
    """Inflate a sensitivity bound for an inexact minimizer.

    Returns base + 2 * delta where delta = sqrt(2 * loss_gap_bound / lambda_sc)
    is the weight-gap bound that strong convexity gives from a bound on
    objective(w) - objective(w*): a report's ``loss_gap_bound`` or, before
    any solve, ``tolerance**2 / (2 lambda_sc)``.
    """
    _require("lambda_sc", lambda_sc, *_POSITIVE)
    _require("base_sensitivity", base_sensitivity, *_NONNEGATIVE)
    _require("loss_gap_bound", loss_gap_bound, *_NONNEGATIVE)
    return base_sensitivity + 2.0 * math.sqrt(2.0 * loss_gap_bound / lambda_sc)
