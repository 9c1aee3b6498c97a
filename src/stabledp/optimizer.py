"""Deterministic ERM solver and a configurable minibatch SGD engine.

``solve_erm`` is accelerated proximal gradient descent (FISTA with
function-value restart) at a fixed step from a certain curvature bound, so
no step is ever retried. It solves a block of problems in one call: every
one-vs-rest class of one feature matrix, or a sequence of same-shape
datasets such as S and its neighbours, each column at its own step. The L1
term is handled by soft-thresholding so elastic-net solutions reach exact
zeros, which downstream feature selection relies on. Both solvers evaluate
only through ``model.gradient`` and ``model.smooth_objective``, which take
the stack of a dataset sequence as they take one dataset.

``sgd_run`` exposes the knobs that control uniform stability: step count,
step size, batch size, gradient clipping, norm-contracting dropout, and
iterate averaging. Batch order and dropout randomness come from streams
derived per purpose (and per step, for dropout) from the config seed. It
trains a block of same-shape datasets, such as S and its neighbours, as
the columns of one iterate: every column sees the same batch indices and
the same per-step dropout stream, which is the coupling of the uniform
stability argument (Hardt, Recht & Singer 2016), and each column equals its
own single-dataset run to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import (
    Dataset,
    ObjectiveSpec,
    _is_int,
    _stack,
    _Stack,
    gradient,
    smooth_objective,
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
    step_size: float | Callable[[int], float]
    batch_size_b: int
    clip_bound_G: float | None = None
    dropout_rate_s: float | None = None
    averaging: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        # every comparison with NaN is false, so each guard tests the valid range
        if not _is_int(self.steps_T) or self.steps_T < 0:
            raise ValueError(f"steps_T must be an integer >= 0, got {self.steps_T!r}")
        if not _is_int(self.batch_size_b) or self.batch_size_b < 1:
            raise ValueError(f"batch_size_b must be an integer >= 1, got {self.batch_size_b!r}")
        if not callable(self.step_size) and not 0 < self.step_size < math.inf:
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if self.clip_bound_G is not None and not self.clip_bound_G > 0:
            raise ValueError(f"clip_bound_G must be > 0, got {self.clip_bound_G}")
        if self.dropout_rate_s is not None and not 0 < self.dropout_rate_s <= 1:
            raise ValueError(f"dropout_rate_s must be in (0, 1], got {self.dropout_rate_s}")
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

    def step_at(self, t: int) -> float:
        if callable(self.step_size):
            return float(self.step_size(t))
        return float(self.step_size)


@dataclass
class SolveReport:
    """Result of a solve: weights plus optimality/convergence diagnostics.

    ``loss_gap_bound`` is an upper bound on objective(w) - objective(w*);
    it feeds the sensitivity correction for inexact minimizers.

    For a block solve (``weights`` of shape (d, m)) ``iterations_used``
    counts block iterations, ``final_gradient_norm`` and ``loss_gap_bound``
    are the maxima over the m columns, and ``residuals`` holds each
    column's own residual (``solve_erm`` only), so a failed block tells
    which columns stayed above tolerance.
    """

    weights: np.ndarray
    final_gradient_norm: float
    iterations_used: int
    loss_gap_bound: float | None = None
    residuals: np.ndarray | None = None

    def __post_init__(self):
        if not 0 <= self.final_gradient_norm < math.inf:
            raise ValueError(
                f"final_gradient_norm must be finite and >= 0, got {self.final_gradient_norm}")


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Proximal map of t * ||.||_1: shrink toward 0, exact zeros inside [-t, t]."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _smooth_curvature(spec: ObjectiveSpec, S: Dataset | _Stack):
    """Certain upper bound on the gradient Lipschitz constant of the smooth part.

    ``S`` is one dataset, giving a float, or a stack of datasets, giving one
    bound per dataset from one batched pass; each equals the bound of its
    own dataset.

    The loss curvature is at most factor * lambda_max(X^T X / n), with
    factor 1/4 for logistic and 2 for squared loss. lambda_max is bounded
    through the Gram matrix G on the smaller of the n and d sides (X^T X
    and X X^T share their nonzero eigenvalues) by
    lambda_max <= tr(G^(2^k))^(2^-k), taken over six squarings, each
    normalised by its trace so nothing overflows, and clamped by tr(G).
    The bound exceeds lambda_max by at most the factor rank(G)^(1/64)
    (1.06 at rank 32), less when the top eigenvalue stands out. Either bound can round below the true
    lambda_max (by 1e-12 relative on rank-1 inputs), so the smaller one is
    padded by 1e-9 relative. All-zero features give tr(G) = 0 and the
    bound 2 * l2_coefficient, with no normalisation by a zero trace.
    """
    one = isinstance(S, Dataset)
    X = S.features[None] if one else S.features
    n, d = X.shape[1:]
    Xt = X.transpose(0, 2, 1)
    G = (Xt @ X if d <= n else X @ Xt) / n
    tops = np.trace(G, axis1=1, axis2=2)
    # an all-zero G is replaced by I / size, so no trace below is 0; its
    # bound stays tr(G) = 0
    zero = tops == 0
    G[zero] = np.eye(G.shape[1])
    A = G / np.where(zero, G.shape[1], tops)[:, None, None]
    bounds = tops.tolist()
    for k in range(1, 7):
        A = A @ A
        s = np.trace(A, axis1=1, axis2=2)  # >= 1/rank(A) > 0, as tr(A) = 1
        A /= s[:, None, None]
        # scalar pow, as numpy's array pow rounds differently in ~5% of cases
        bounds = [b * v ** (0.5 ** k) for b, v in zip(bounds, s.tolist())]
    factor = 0.25 if spec.loss_kind == "logistic" else 2.0
    L = [factor * (min(top, bound) * (1.0 + 1e-9)) + 2.0 * spec.l2_coefficient
         for top, bound in zip(tops.tolist(), bounds)]
    return L[0] if one else np.array(L)


def solve_erm(spec: ObjectiveSpec, S: Dataset | Sequence[Dataset], tolerance: float = 1e-8,
              max_iters: int = 100_000, w0: np.ndarray | None = None) -> SolveReport:
    """Minimize the regularized objective to a given optimality residual.

    FISTA (Beck & Teboulle 2009) at the fixed step alpha = 1/L, where L is
    the certain curvature bound of :func:`_smooth_curvature`, so no step
    is ever rejected or retried. Momentum restarts (O'Donoghue & Candes
    2015) whenever a step raises the full objective by more than its
    rounding noise. The L1 term is handled by soft-thresholding; with no
    L1 term the proximal step is the identity.

    A block of m problems is solved in one loop, with (d, m) weights:

    * one dataset with (n, m) labels: the m columns share X, and so the step;
    * a sequence of m same-shape datasets with 1-D labels (S and its
      neighbours, say): column j is trained on the j-th dataset, over the
      stacked (m, n, d) features, at its own step 1/L_j; all m curvature
      bounds come from one batched pass. The stack holds m*n*d floats.

    Momentum, restart and stopping are per column, and each column keeps
    the first iterate at which it reaches ``tolerance``, so it follows its
    own single-problem path and its weights do not depend on the other
    columns (beyond the rounding of the block product, about 1e-15). The
    block runs until its slowest column converges.

    The residual of a step x+ = prox(y - alpha grad f(y)) is the gradient
    mapping norm ||G(y)|| = ||y - x+|| / alpha at the point y the step is
    taken from (the extrapolated point included). With alpha <= 1/L and f
    lambda_sc-strongly convex, the proximal-gradient inequality gives, for
    every z, F(x+) <= F(z) + <G(y), y - z> - (alpha/2)||G(y)||^2
    - (lambda_sc/2)||y - z||^2. At z = w* the right side, maximised over
    y - z, is at most F* + ||G(y)||^2 / (2 lambda_sc), so
    ``loss_gap_bound = residual^2 / (2 lambda_sc)`` holds at the returned
    x+. Deterministic given (spec, S, tolerance): no randomness anywhere.

    Raises :class:`ConvergenceError` if a column's residual is still above
    ``tolerance`` after ``max_iters`` block iterations; its report carries
    each such column's last iterate, with the gap bound of that iterate,
    and every column's residual, so the converged columns stay usable.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    lam_sc = strong_convexity_constant(spec)  # raises if not strongly convex
    c1 = spec.l1_coefficient
    if not isinstance(S, Dataset):
        S = _stack(S)
    shape = (S.d,) + S.labels.shape[1:]
    curvature = _smooth_curvature(spec, S)
    x = np.zeros(shape) if w0 is None else np.array(w0, dtype=float)
    if x.shape != shape:
        raise ValueError(f"w0 shape {x.shape} does not match the weight shape {shape}")
    alpha = 1.0 / np.maximum(curvature, 1e-12)

    def full_objective(w):
        val = smooth_objective(spec, w, S)
        return val + c1 * np.abs(w).sum(axis=0) if c1 > 0 else val

    y, f_x, t = x, full_objective(x), np.ones(shape[1:])
    # per column: the first iterate at tolerance and its residual
    w_out, r_out = x, np.full(shape[1:], math.inf)
    for it in range(1, max_iters + 1):
        x_next = y - alpha * gradient(spec, y, S)
        if c1 > 0:
            x_next = soft_threshold(x_next, alpha * c1)
        step = x_next - y
        residual = np.sqrt((step * step).sum(axis=0)) / alpha
        if (residual <= tolerance).any():
            first = (residual <= tolerance) & (r_out > tolerance)
            w_out, r_out = np.where(first, x_next, w_out), np.where(first, residual, r_out)
            if (r_out <= tolerance).all():
                return _solve_report(w_out, r_out, it, lam_sc)
        f_next = full_objective(x_next)
        # restart (no momentum this step) where the objective rose by more
        # than its rounding noise; a decision taken on noise would let a
        # column's path depend on how the block product happens to round
        t = np.where(f_next - f_x > 1e-13 * abs(f_x), 1.0, t)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_next + ((t - 1.0) / t_next) * (x_next - x)
        x, f_x, t = x_next, f_next, t_next

    # the columns still above tolerance carry their last iterate
    done = r_out <= tolerance
    report = _solve_report(np.where(done, w_out, x), np.where(done, r_out, residual),
                           max_iters, lam_sc)
    columns = f" in columns {np.flatnonzero(~done).tolist()}" if done.ndim else ""
    raise ConvergenceError(
        f"no convergence after {max_iters} iterations{columns} (residual "
        f"{report.final_gradient_norm:.3e} > tolerance {tolerance:.3e})",
        report,
    )


def _solve_report(w: np.ndarray, residual: np.ndarray, iterations: int,
                  lam_sc: float) -> SolveReport:
    worst = float(np.max(residual))
    return SolveReport(w, worst, iterations, loss_gap_bound=worst * worst / (2.0 * lam_sc),
                       residuals=residual if residual.ndim else None)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """The norm of each row; a 1-D input is one row."""
    return np.sqrt((v * v).sum(axis=-1, keepdims=True))


def clip_gradient(g: np.ndarray, G: float) -> np.ndarray:
    """Rescale g to norm G when ||g|| > G; direction preserved, else unchanged.

    A 2-D g is clipped row by row, each row by its own norm.
    """
    if not G > 0:  # false for NaN too
        raise ValueError(f"G must be > 0, got {G}")
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
    number of nonzeros share one draw sequence, and each applies its prefix
    until its own norm reaches the target. The generator is left where the
    rows with the most nonzeros left it; for a 1-D v, after its last draw.
    """
    if not 0 < s <= 1:
        raise ValueError(f"s must be in (0, 1], got {s}")
    v = np.asarray(v, dtype=float)
    out = np.array(np.atleast_2d(v))
    target = s * _row_norms(out)[:, 0]
    counts = np.count_nonzero(out, axis=1)
    start = rng.bit_generator.state
    for c0 in sorted(set(counts.tolist()) - {0}):
        rng.bit_generator.state = start
        rows = np.flatnonzero(counts == c0)
        # nonzero positions of each row; a draw removes one rank of what is left
        positions = np.nonzero(out[rows])[1].reshape(rows.size, c0)
        ranks = list(range(c0))
        for k in range(c0):
            active = _row_norms(out[rows])[:, 0] > target[rows]
            if not active.any():
                break
            rank = ranks.pop(rng.integers(c0 - k))
            out[rows[active], positions[active, rank]] = 0.0
    return out.reshape(v.shape)


def sgd_run(spec: ObjectiveSpec, S: Dataset | Sequence[Dataset], cfg: SgdConfig,
            w0: np.ndarray | None = None) -> SolveReport:
    """Run T steps of minibatch proximal SGD; bit-reproducible given the seed.

    Per step: draw the next without-replacement batch, compute the smooth
    gradient, clip to G if configured, apply s-dropout if configured, step,
    then soft-threshold for the L1 term. With ``averaging`` set, the
    weighted average of post-step iterates is returned instead of the final
    iterate.

    ``S`` is one dataset, giving (d,) weights, or a sequence of m datasets
    of one shape with 1-D labels, giving (d, m) weights whose column j is
    trained on the j-th dataset. The block is one coupled run: every column
    takes the same batch indices from the one ``derive_rng(seed, 0)``
    order, and its gradient row is clipped and dropped out by itself, with
    every row drawing from the step's fresh ``derive_rng(seed, 1, t)``. So
    each column equals its own single-dataset run to rounding, and a run on
    S with its neighbours is the paired run of uniform stability. ``w0``,
    when given, has the shape of the weights. ``final_gradient_norm`` is
    the maximum over the columns of the full-data gradient norm.
    """
    one = isinstance(S, Dataset)
    block = _stack([S] if one else S)
    m, n, d = block.features.shape
    if cfg.batch_size_b > n:
        raise ValueError(f"batch_size_b={cfg.batch_size_b} exceeds n={n}")
    shape = (d,) if one else (d, m)
    W = np.zeros(shape) if w0 is None else np.array(w0, dtype=float)
    if W.shape != shape:
        raise ValueError(f"w0 shape {W.shape} does not match the weight shape {shape}")
    W = W.reshape(d, m)  # one column per dataset
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
        g = gradient(spec, W, _Stack(block.features[:, batch_idx], block.labels[batch_idx]))
        # clipping and dropout act on each dataset's gradient, a row of g.T
        if cfg.clip_bound_G is not None:
            g = clip_gradient(g.T, cfg.clip_bound_G).T
        if cfg.dropout_rate_s is not None:
            g = s_dropout(g.T, cfg.dropout_rate_s, derive_rng(cfg.seed, 1, t)).T
        alpha = cfg.step_at(t)
        W = W - alpha * g
        if spec.l1_coefficient > 0:
            W = soft_threshold(W, alpha * spec.l1_coefficient)
        if not np.all(np.isfinite(W)):
            raise FloatingPointError(f"non-finite iterate at step {t}")
        if avg is not None:
            avg += cfg.averaging[t] * W

    result = avg if avg is not None else W
    grad_norm = float(np.max(_row_norms(gradient(spec, result, block).T)))
    return SolveReport(
        weights=result.reshape(shape),
        final_gradient_norm=grad_norm,
        iterations_used=cfg.steps_T,
    )


def convergence_sensitivity_correction(base_sensitivity: float, report: SolveReport,
                                       lambda_sc: float) -> float:
    """Inflate a sensitivity bound for an inexact minimizer.

    Returns base + 2 * delta where delta = sqrt(2 * gap / lambda_sc) is the
    weight-gap bound that strong convexity gives from the report's loss gap.
    """
    if not 0 < lambda_sc < math.inf:
        raise ValueError(f"lambda_sc must be finite and > 0, got {lambda_sc}")
    if not 0 <= base_sensitivity < math.inf:
        raise ValueError(f"base_sensitivity must be finite and >= 0, got {base_sensitivity}")
    if report.loss_gap_bound is None:
        raise ValueError("report carries no loss-gap bound")
    return base_sensitivity + 2.0 * math.sqrt(2.0 * report.loss_gap_bound / lambda_sc)
