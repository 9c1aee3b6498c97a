"""Deterministic ERM solver and a configurable minibatch SGD engine.

Both solvers take ``S`` through one path, ``_block``: a ``Dataset`` gives
(d,) or (d, K) weights, and a stack of m datasets (S and its neighbours by
``model._stack``, or a config's training splits with their signed labels)
(m, d, K) weights.

``solve_erm`` is accelerated proximal gradient descent (FISTA with
gradient-scheme restart) at a fixed step from a certain curvature bound, so
no step is ever retried. One call solves every label column of every
dataset of its input, each dataset at its own step. The L1 term is handled
by soft-thresholding so elastic-net solutions reach exact zeros, which
downstream feature selection relies on. Both solvers step on
``model.gradient`` alone, which takes a stack as it takes one dataset;
``solve_erm`` takes ``model.objective`` once, at the end.

``sgd_run`` exposes the knobs that control uniform stability: step count,
step size, batch size, gradient clipping, norm-contracting dropout, and
iterate averaging. Batch order and dropout randomness come from streams
derived per purpose (and per step, for dropout) from the config seed. It
trains a stack, such as S and its neighbours, as the slices of one
iterate: every slice sees the same batch indices and the same per-step
dropout stream, which is the coupling of the uniform stability argument
(Hardt, Recht & Singer 2016), and each slice equals its own
single-dataset run bit for bit. It returns its weights alone: a run of
T steps certifies no residual, so it makes no ``SolveReport``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _COUNT,
    _NONNEGATIVE,
    _POSITIVE,
    _UNIT,
    Dataset,
    ObjectiveSpec,
    _at_least,
    _check_labels,
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
    """Minibatch SGD configuration.

    ``averaging``, when given, is a weight per step (nonnegative, summing
    to 1); the returned iterate is the weighted average of the post-step
    iterates instead of the final one.
    """

    steps_T: int
    step_size: float
    batch_size_b: int
    clip_bound_G: float | None = None
    dropout_rate_s: float | None = None
    averaging: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        _require("steps_T", self.steps_T, *_at_least(0))
        _require("batch_size_b", self.batch_size_b, *_COUNT)
        _require("step_size", self.step_size, *_POSITIVE)
        if self.clip_bound_G is not None:
            _require("clip_bound_G", self.clip_bound_G, *_POSITIVE)
        if self.dropout_rate_s is not None:
            _require("dropout_rate_s", self.dropout_rate_s, *_UNIT)
        if self.averaging is not None:
            w = np.asarray(self.averaging, dtype=float)
            if w.shape != (self.steps_T,):
                raise ValueError(
                    f"averaging needs one weight per step ({self.steps_T}), got {w.shape}"
                )
            if not np.all(np.isfinite(w)):
                raise ValueError(f"averaging weights must be finite, got {self.averaging}")
            if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
                raise ValueError("averaging weights must be nonnegative and sum to 1")
            object.__setattr__(self, "averaging", tuple(float(v) for v in w))


@dataclass
class SolveReport:
    """Result of a ``solve_erm`` call: weights plus optimality diagnostics.

    ``final_gradient_norm`` is the gradient-mapping residual at ``weights``
    and ``loss_gap_bound`` the bound residual^2 / (2 lambda_sc) it gives on
    objective(w) - objective(w*); it feeds the sensitivity correction for
    inexact minimizers. With ``objective``, the full objective at
    ``weights``, it brackets the optimum:
    objective - loss_gap_bound <= F* <= objective.

    For a block solve (``weights`` of shape (d, K), or (m, d, K) for a
    stack from ``model._stack``) ``iterations_used`` counts block
    iterations, ``final_gradient_norm`` and ``loss_gap_bound`` are the
    maxima over the columns, and ``objective`` and ``residuals`` hold each
    column's own value, of shape (K,) or (m, K), so a failed block tells
    which columns stayed above tolerance.
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
    results back to the layout of S: (d,) or (d, K) weights for a dataset,
    (m, d, K) for a stack of (m, n, K) labels, which ``model._stack`` builds
    from same-shape datasets. Any other S, a list included, raises ValueError."""
    _require("S's type", type(S), lambda t: issubclass(t, (Dataset, _Stack)),
             "Dataset or _Stack (build a stack with model._stack)", type)
    if isinstance(S, _Stack):
        _require("S's label shape", S.labels.shape, lambda shape: len(shape) == 3,
                 "(m, n, K), K label columns per dataset", tuple)
        return S, lambda a: a
    if S.labels.ndim == 1:
        return _Stack(S.features[None], S.labels[None, :, None]), lambda a: a[0, ..., 0]
    return _Stack(S.features[None], S.labels[None]), lambda a: a[0]


def solve_erm(spec: ObjectiveSpec, S: Dataset | _Stack,
              tolerance: float = 1e-8, max_iters: int = 100_000) -> SolveReport:
    """Minimize the regularized objective to a given optimality residual.

    FISTA (Beck & Teboulle 2009) at the fixed step alpha = 1/L, where L is
    the certain curvature bound of :func:`_smooth_curvature`, so no step
    is ever rejected or retried. Momentum restarts where the step turns
    against the move, <y - x+, x+ - x> > 1e-12 ||y - x+|| ||x+ - x||: the
    gradient scheme of O'Donoghue & Candes (2015), with a relative floor
    so that no decision, and so no column's path, rests on how a product
    rounds. An iteration takes one gradient; the objective is taken once,
    at the returned weights. The L1 term is handled by soft-thresholding;
    with no L1 term the proximal step is the identity.

    Every input is solved as one (m, d, K) block: m datasets, each at its
    own step 1/L_j, with K label columns each:

    * one dataset: m = 1, with K = 1 for 1-D labels and K columns for
      (n, K) labels (one one-vs-rest column per class, say), giving (d,)
      or (d, K) weights;
    * a stack (the train/test splits of one config, or S and its
      neighbours stacked by ``model._stack``, say), giving (m, d, K)
      weights whose slice j is trained on the j-th dataset; its curvature
      bounds are taken once per stack.

    Momentum, restart and stopping are per (dataset, column), and each
    column keeps the first iterate at which it reaches ``tolerance``. A
    batched product runs each dataset's own product, so every dataset's
    columns follow the path of its lone solve bit for bit, whatever the
    other datasets do; the K columns of one dataset share its products, so
    each equals a lone solve of its label column alone to rounding (about
    1e-15). The block runs until its slowest column converges.

    The residual of a step x+ = prox(y - alpha grad f(y)) is the gradient
    mapping norm ||G(y)|| = ||y - x+|| / alpha at the point y the step is
    taken from (the extrapolated point included). With alpha <= 1/L and f
    lambda_sc-strongly convex, the proximal-gradient inequality gives, for
    every z, F(x+) <= F(z) + <G(y), y - z> - (alpha/2)||G(y)||^2
    - (lambda_sc/2)||y - z||^2. At z = w* the right side, maximised over
    y - z, is at most F* + ||G(y)||^2 / (2 lambda_sc), so
    ``loss_gap_bound = residual^2 / (2 lambda_sc)`` holds at the returned
    x+. Deterministic given (spec, S, tolerance): no randomness anywhere.

    A logistic solve needs every label in {-1, +1}, and raises ValueError
    before its first iteration otherwise.

    Raises :class:`ConvergenceError` if a column's residual is still above
    ``tolerance`` after ``max_iters`` block iterations; its message names
    those columns, as (dataset, column) pairs for a stack, and its report
    carries each such column's last iterate, with the gap bound of that
    iterate, and every column's residual, so the converged columns stay
    usable.
    """
    _require("tolerance", tolerance, *_POSITIVE)
    _require("max_iters", max_iters, *_COUNT)
    lam_sc = strong_convexity_constant(spec)  # raises if not strongly convex
    S, unpack = _block(S)
    _check_labels(spec, S.labels)
    m, _, K = S.labels.shape
    # the step of each dataset, against its (m, K) columns and its (m, d, K) weights
    alpha = 1.0 / np.maximum(_smooth_curvature(spec, S), 1e-12)[:, None]
    alpha_w = alpha[:, :, None]
    x = np.zeros((m, S.d, K))
    y, t = x, np.ones((m, K))
    # per column: the first iterate at tolerance and its residual
    w_out, r_out = x, np.full((m, K), math.inf)
    for it in range(1, max_iters + 1):
        x_next = y - alpha_w * gradient(spec, y, S)
        if spec.l1_coefficient > 0:
            x_next = soft_threshold(x_next, alpha_w * spec.l1_coefficient)
        step, move = x_next - y, x_next - x
        residual = np.sqrt((step * step).sum(axis=1)) / alpha
        if (residual <= tolerance).any():
            first = (residual <= tolerance) & (r_out > tolerance)
            w_out = np.where(first[:, None], x_next, w_out)
            r_out = np.where(first, residual, r_out)
            if (r_out <= tolerance).all():
                return _solve_report(spec, S, unpack, w_out, r_out, it, lam_sc)
        # restart (no momentum this step) where the step turns against the move
        t = np.where(-(step * move).sum(axis=1)
                     > 1e-12 * alpha * residual * np.sqrt((move * move).sum(axis=1)), 1.0, t)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next)[:, None] * move
        x, t = x_next, t_next

    # the columns still above tolerance carry their last iterate
    done = r_out <= tolerance
    report = _solve_report(spec, S, unpack, np.where(done[:, None], w_out, x),
                           np.where(done, r_out, residual), max_iters, lam_sc)
    failed, columns = unpack(~done), ""
    if failed.ndim == 1:
        columns = f" in columns {np.flatnonzero(failed).tolist()}"
    elif failed.ndim == 2:
        columns = f" in (dataset, column) pairs {[tuple(c) for c in np.argwhere(failed).tolist()]}"
    raise ConvergenceError(
        f"no convergence after {max_iters} iterations{columns} (residual "
        f"{report.final_gradient_norm:.3e} > tolerance {tolerance:.3e})",
        report,
    )


def _solve_report(spec: ObjectiveSpec, S: _Stack, unpack, w: np.ndarray,
                  residual: np.ndarray, iterations: int, lam_sc: float) -> SolveReport:
    worst = float(np.max(residual))
    value, residual = unpack(objective(spec, w, S)), unpack(residual)
    return SolveReport(unpack(w), worst, iterations, worst * worst / (2.0 * lam_sc),
                       float(value) if value.ndim == 0 else value,
                       residual if residual.ndim else None)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The norm of each row; a 1-D input is one row."""
    return np.sqrt((v * v).sum(axis=-1, keepdims=True))


def clip_gradient(g: np.ndarray, G: float) -> np.ndarray:
    """Rescale g to norm G when ||g|| > G; direction preserved, else unchanged.

    A 2-D g is clipped row by row, each row by its own norm.
    """
    _require("G", G, *_POSITIVE)  # g * (inf / inf) would be NaN
    g = np.asarray(g, dtype=float)
    # an unclipped row is multiplied by G / G, exactly 1.0
    return g * (G / np.maximum(_row_norms(g), G))


def s_dropout(v: np.ndarray, s: float, rng: np.random.Generator) -> np.ndarray:
    """Randomly zero components of v until ||result|| <= s * ||v||.

    The contraction holds on every invocation (worst case, not in
    expectation); v = 0 returns 0 and s = 1 may return v unchanged. Each
    draw picks one of the remaining nonzero components uniformly.

    A 2-D v is dropped out row by row, each row as if it alone were passed
    with ``rng`` in its current state: coupled rows see the same random
    stream, as neighbouring SGD runs on one seed do. Rows with the same
    number c of nonzeros share one draw sequence, which fixes the order in
    which their nonzeros go; each row keeps the shortest prefix of that
    order after which its norm is at most its target. All prefixes of a
    group are tested in one pass over a (c + 1, rows, d) stack of masked
    copies, each norm summed over a full row with zeros in place, as a
    draw-at-a-time loop would sum it. The generator is left where the rows
    with the most nonzeros left it, after the draws their longest prefix
    took; for a 1-D v, after its last draw.
    """
    _require("s", s, *_UNIT)
    v = np.asarray(v, dtype=float)
    out = np.array(np.atleast_2d(v))
    target = s * _row_norms(out)[:, 0]
    counts = (out != 0).sum(axis=1)
    groups = sorted(set(counts.tolist()) - {0})
    start = rng.bit_generator.state
    for c0 in groups:
        rng.bit_generator.state = start
        rows = np.flatnonzero(counts == c0)
        # a C-ordered copy whatever the order of v: from d = 8 on, a row's
        # sum rounds by its memory layout
        block = out[rows]
        # draw k removes one rank (the k-th nonzero of a row, in column order)
        # of the c0 - k left; rank q is zeroed from copy 1 + argsort(order)[q] on
        ranks = list(range(c0))
        order = [ranks.pop(rng.integers(c0 - k)) for k in range(c0)]
        nonzero = block != 0
        rank = np.cumsum(nonzero, axis=1) - 1
        zeroed_from = np.where(nonzero, (1 + np.argsort(order))[rank], c0 + 1)  # zeros never
        copies = np.where(np.arange(c0 + 1)[:, None, None] >= zeroed_from, 0.0, block)
        # each row stops at its first copy at target; the all-zero copy c0 always is
        stop = np.argmin(np.sqrt((copies * copies).sum(axis=-1)) > target[rows], axis=0)
        out[rows] = copies[stop, np.arange(stop.size)]
    if groups and (drawn := int(stop.max())) < c0:
        # rewind to the end of the last group's longest prefix
        rng.bit_generator.state = start
        for k in range(drawn):
            rng.integers(c0 - k)
    return out.reshape(v.shape)


def sgd_run(spec: ObjectiveSpec, S: Dataset | _Stack, cfg: SgdConfig) -> np.ndarray:
    """Run T steps of minibatch proximal SGD; bit-reproducible given the seed.

    Per step: draw the next without-replacement batch, compute the smooth
    gradient, clip to G if configured, apply s-dropout if configured, step,
    then soft-threshold for the L1 term. With ``averaging`` set, the
    weighted average of post-step iterates is returned instead of the final
    iterate.

    ``S`` is a dataset, giving (d,) weights, or a stack of m datasets (S
    and its neighbours by ``model._stack``, say), giving (m, d, 1) weights
    whose slice j is trained on the j-th dataset. The stack is one coupled
    run: every slice takes the same batch indices from the one
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
    avg = np.zeros_like(W) if cfg.averaging is not None else None

    batch_rng = derive_rng(cfg.seed, 0)
    order = batch_rng.permutation(n)
    cursor = 0
    for t in range(cfg.steps_T):
        if cursor >= n:
            order = batch_rng.permutation(n)
            cursor = 0
        batch_idx = order[cursor:cursor + cfg.batch_size_b]
        cursor += cfg.batch_size_b
        g = gradient(spec, W, _Stack(block.features[:, batch_idx], block.labels[:, batch_idx]))
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
        if avg is not None:
            avg += cfg.averaging[t] * W

    return unpack(avg if avg is not None else W)


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
