"""Core data types, loss functions, and their analytic constants.

A classification/regression problem is a ``Dataset`` (feature matrix plus
labels) together with an ``ObjectiveSpec`` describing the loss and the
regularization penalty. Two penalty modes exist:

* ``l2``:      mean loss + (lam/2) * ||w||^2. A lam * ||w||^2 penalty is
               this one at 2 * lam.
* ``elastic``: mean loss + lam * (gamma * ||w||^2 + eta * ||w||_1), with
               eta defaulting to 1 - gamma.

The strong-convexity constant of the full objective is always
``2 * l2_coefficient``; sensitivity and noise-scale formulas elsewhere in
the package take that constant, never the raw ``lam`` symbol.

A ``Dataset`` holds one label per record, and its weights are a plain 1-D
float64 ``numpy`` array. K problems on m same-shape feature matrices (the
one-vs-rest columns of a config's training splits, say) are a stack
(``_Stack``): (m, n, d) features with (m, n, K) labels and (m, d, K)
weights, and the loss functions take it in place of a ``Dataset``, giving
one value per (dataset, column) pair. Margins are ``X @ w`` and gradients
``X.swapaxes(-1, -2) @ c`` for a dataset and a stack alike: a batched
``np.matmul`` runs each slice's own product, so every slice of a stack
evaluates bit for bit as its dataset would alone, and ``gradient`` may take
a stack in runs of datasets that fit in cache, shared between the caller
and one worker thread.

Every type and range check of the package's inputs goes through one rule,
``_require``: the type first (a real number, an integer, numpy's included,
or a named type; a bool is never a number), then the valid range, stated
so that NaN fails it, with the error naming the parameter or config field.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "ObjectiveSpec",
    "as_signed_labels",
    "per_example_loss",
    "per_example_grad",
    "objective",
    "smooth_objective",
    "gradient",
    "strong_convexity_constant",
]

LOSS_KINDS = ("logistic", "squared")
PENALTIES = ("l2", "elastic")

# features per run of a stack's ``gradient``, in bytes. Measured on a 2-vCPU
# Xeon with 2 MiB of L2 per core, at one BLAS thread, on the benchmark's
# ``figures`` workload, whose training stack is (10, 1600, 32): on one thread,
# the median of 30 interleaved in-process passes took 0.214 s at 1 MiB (two
# datasets a run), 0.218 s at 512 KiB (one), and 0.233 s both at 2 MiB (five)
# and whole-stack. With the runs shared by two threads, 512 KiB keeps the two
# margin buffers at the one 1 MiB-run buffer's size; 1 MiB runs on two threads
# were no faster on the benchmark (wall_s 0.324-0.339 s against 0.330-0.334 s)
# and took 0.85 MB more peak RSS
_RUN_BYTES = 1 << 19


# the builtin types first, as an isinstance test against an ABC is slow
_TYPES = {float: (float, int, numbers.Real), int: (int, numbers.Integral)}


def _require(name: str, v, ok, want: str, kind=float, error=ValueError) -> None:
    """The one input guard: raise ``error`` unless v is a ``kind`` and ``ok(v)`` holds.

    The type is tested first, so ``ok`` only sees a ``kind``: ``float``
    admits any real number and ``int`` any integer, numpy's included, and a
    bool is neither; any other ``kind`` is an ``isinstance`` test. ``ok``
    states the valid range, so NaN, which fails every comparison, fails it.
    The message is ``"<name> must be <want>, got <v!r>"``.
    """
    if ((isinstance(v, bool) and kind is not bool)
            or not isinstance(v, _TYPES.get(kind, kind)) or not ok(v)):
        raise error(f"{name} must be {want}, got {v!r}")


def _require_each(rule: tuple, **values) -> None:
    """``_require`` every keyword value under one (ok, want, kind) rule."""
    for name, v in values.items():
        _require(name, v, *rule)


# (ok, want, kind) of the common ranges, each spread into ``_require``
_POSITIVE = (lambda v: 0 < v < math.inf, "finite and > 0", float)
_NONNEGATIVE = (lambda v: 0 <= v < math.inf, "finite and >= 0", float)
_UNIT = (lambda v: 0 < v <= 1, "in (0, 1]", float)
_INTEGER = (lambda v: True, "an integer", int)


def _at_least(low: int) -> tuple:
    """The rule of an integer >= ``low``."""
    return (lambda v: v >= low), f"an integer >= {low}", int


_COUNT = _at_least(1)


def _one_of(choices: tuple) -> tuple:
    """The rule of a string among ``choices``."""
    return choices.__contains__, f"one of {choices}", str


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _row_norms(A: np.ndarray) -> np.ndarray:
    """The L2 norm of every row of A, in an array of shape ``A.shape[:-1]``.

    Each (1, d) @ (d, 1) slice of the one batched product runs its row's own
    ``v.dot(v)``, so every norm is bit-identical to ``np.linalg.norm(v)`` on
    the 1-D row; over 50 rows the one product costs a tenth of a per-row dot.
    It makes no temporary the size of A, and every ``max_row_norm`` is its max.
    """
    return np.sqrt((A[..., None, :] @ A[..., :, None]).reshape(A.shape[:-1]))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n x d) with one label per row.

    Rows are immutable after construction and safe to share across workers.
    Labels may be class indices or +/-1; binary mapping happens at training
    time via :func:`as_signed_labels`. K label columns over the same
    features are a stack (``_Stack``), never a dataset.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got ndim={X.ndim}")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got shape {X.shape}")
        if y.shape != X.shape[:1]:
            raise ValueError(f"labels shape {y.shape} does not match (n,) = {X.shape[:1]}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("labels contain non-finite entries")
        object.__setattr__(self, "features", _readonly(X))
        object.__setattr__(self, "labels", _readonly(y))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def max_row_norm(self) -> float:
        return float(_row_norms(self.features).max())

    def replace_record(self, i: int, x: np.ndarray, y) -> "Dataset":
        """Neighboring dataset: record i swapped for (x, y).

        ``i`` must be an index in [0, n), so -1 is not the last record,
        ``x`` a vector of d entries and ``y`` one finite number, not a bool
        (a 0-d array counts as one).
        """
        _require("i", i, lambda v: 0 <= v < self.n, f"an integer in [0, {self.n})", int)
        x = np.asarray(x, dtype=float)
        _require("x", x, lambda v: v.shape == (self.d,), f"a vector of {self.d} entries",
                 np.ndarray)
        if isinstance(y, np.ndarray) and y.ndim == 0:
            y = y[()]  # a 0-d array holds one number
        _require("y", y, math.isfinite, "one finite number", float)
        X, lab = np.array(self.features), np.array(self.labels)
        X[i], lab[i] = x, y
        return Dataset(X, lab)


@dataclass(frozen=True, eq=False)
class _Stack:
    """m same-shape datasets: (m, n, d) features and (m, n, K) labels.

    K label columns share each dataset's features: K = 1 for raw labels
    (``data_io.split``, an oracle's neighbours), one one-vs-rest column per
    class for a config's signed training splits.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X, Y = self.features, self.labels
        if X.ndim != 3 or Y.ndim != 3 or Y.shape[:2] != X.shape[:2]:
            raise ValueError(f"a stack needs (m, n, d) features and (m, n, K) labels, "
                             f"got {X.shape} and {Y.shape}")

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def d(self) -> int:
        return self.features.shape[2]

    def max_row_norm(self) -> float:
        """The largest feature-row norm of any dataset; taken once per stack."""
        return self._max_row_norm

    @cached_property
    def _max_row_norm(self) -> float:
        return float(_row_norms(self.features).max())

    @cached_property
    def gram_top(self) -> np.ndarray:
        """lambda_max(X^T X / n) of each dataset, clamped at 0; taken once per stack.

        LAPACK (``eigvalsh``) takes it from the Gram matrix on the smaller of
        the n and d sides: X^T X and X X^T share their nonzero eigenvalues.
        """
        X = self.features
        n, d = X.shape[1:]
        Xt = X.swapaxes(-1, -2)
        G = (Xt @ X if d <= n else X @ Xt) / n
        return np.maximum(np.linalg.eigvalsh(G)[:, -1], 0.0)


@dataclass(frozen=True)
class ObjectiveSpec:
    """Loss kind, penalty, and the analytic constants attached to them.

    ``lipschitz_L`` is the Lipschitz constant of the per-example loss in w
    over the feasible region. For logistic loss with row norms bounded by
    kappa it defaults to kappa (|sigmoid - label| <= 1), and a smaller
    value raises, as the gradient reaches kappa. For squared loss it must
    be supplied when a stability bound needs it.
    """

    loss_kind: str
    lam: float
    penalty: str = "l2"
    gamma: float = 1.0
    eta: float | None = None
    kappa: float = 1.0
    lipschitz_L: float | None = None

    def __post_init__(self):
        _require("loss_kind", self.loss_kind, *_one_of(LOSS_KINDS))
        _require("penalty", self.penalty, *_one_of(PENALTIES))
        _require("lam", self.lam, *_NONNEGATIVE)
        _require("gamma", self.gamma, *_UNIT)
        _require("kappa", self.kappa, *_POSITIVE)
        if self.eta is None and self.penalty == "elastic":
            object.__setattr__(self, "eta", 1.0 - self.gamma)
        if self.eta is not None:
            _require("eta", self.eta, *_NONNEGATIVE)
        if self.lipschitz_L is None and self.loss_kind == "logistic":
            object.__setattr__(self, "lipschitz_L", self.kappa)
        if self.lipschitz_L is not None:
            rule = _POSITIVE
            if self.loss_kind == "logistic":  # its gradient reaches ||x|| = kappa
                rule = (lambda v: self.kappa <= v < math.inf,
                        f"finite and >= kappa={self.kappa} for the logistic loss", float)
            _require("lipschitz_L", self.lipschitz_L, *rule)

    @property
    def l2_coefficient(self) -> float:
        """c such that the smooth penalty is c * ||w||^2."""
        if self.penalty == "elastic":
            return self.lam * self.gamma
        return 0.5 * self.lam

    @property
    def l1_coefficient(self) -> float:
        """c such that the nonsmooth penalty is c * ||w||_1."""
        if self.penalty == "elastic":
            return self.lam * self.eta
        return 0.0

    @property
    def L(self) -> float:
        if self.lipschitz_L is None:
            raise ValueError("lipschitz_L was not declared for this objective")
        return self.lipschitz_L


def as_signed_labels(labels: np.ndarray, positive) -> np.ndarray:
    """One-vs-rest binarization: +1 where the label equals ``positive``, else -1.

    A 1-D array of K positives appends an axis of K columns, one per class:
    (m, n) raw labels give (m, n, K).
    """
    return np.where(np.equal.outer(np.asarray(labels, dtype=float), positive), 1.0, -1.0)


def _check_dims(w: np.ndarray, shape: tuple) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != shape:
        raise ValueError(f"weight shape {w.shape} does not match the expected {shape}")
    return w


def _weights_for(w: np.ndarray, S: Dataset | _Stack) -> np.ndarray:
    """w checked against S: (d,) for a dataset, (m, d, K) for a stack."""
    m = S.features.shape[:-2]
    return _check_dims(w, m + (S.d,) + S.labels.shape[len(m) + 1:])


def _sample_axis(S: Dataset | _Stack) -> int:
    """The axis of the n samples in S's labels, and of the d weights in its w."""
    return S.features.ndim - 2


def _loss_values(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example losses at the margins ``X @ w``, the package's one loss kernel.

    A (d, k) ``w`` with (n, 1) ``y`` gives one column per model; stacked
    operands run one batched ``np.matmul``, each slice its own product.
    """
    z = X @ w
    if spec.loss_kind == "logistic":
        # softplus(-y z) = log(1 + exp(-|y z|)) + max(-y z, 0), stable for large |y z|
        np.multiply(y, z, out=z)
        np.negative(z, out=z)
        a = np.abs(z)
        np.negative(a, out=a)
        np.exp(a, out=a)
        np.log1p(a, out=a)
        a += np.maximum(z, 0.0, out=z)
        return a
    np.subtract(z, y, out=z)
    return np.square(z, out=z)


def _loss_derivative(spec: ObjectiveSpec, z: np.ndarray, y: np.ndarray) -> tuple:
    """(c, sign) with d loss / d z = sign * c at the margins z = <w, x>, elementwise,
    c in z's buffer: z, a fresh product, is overwritten.

    The sign is left to the caller, who puts it on a smaller array: negating
    either factor of a product rounds to the negated product.
    """
    if spec.loss_kind == "logistic":
        # d/dz log(1+exp(-y z)) = -y sigmoid(-y z) = -(y / (1 + exp(y z)))
        np.multiply(y, z, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.divide(y, z, out=z), -1.0
    np.subtract(z, y, out=z)
    z *= 2.0
    return z, 1.0


def _grid_of(spec) -> tuple:
    """The specs of ``spec`` as a tuple: one ``ObjectiveSpec`` is a grid of one.

    A grid is a non-empty sequence of specs of one loss kind, which may
    differ in every other field; any other ``spec`` raises ValueError.
    """
    specs = (spec,) if isinstance(spec, ObjectiveSpec) else tuple(spec)
    _require("specs", specs, lambda g: g and all(isinstance(s, ObjectiveSpec) for s in g),
             "a non-empty sequence of ObjectiveSpecs", tuple)
    _require("the specs' loss_kind", tuple(s.loss_kind for s in specs),
             lambda k: len(set(k)) == 1, "one, as a grid steps one loss", tuple)
    return specs


def _check_labels(spec: ObjectiveSpec, labels, name: str = "labels") -> None:
    """Raise unless the loss can back every label: the logistic loss needs +/-1.

    Its L = kappa assumes |sigmoid - label| <= 1. The error names ``name``.
    """
    labels = np.asarray(labels, dtype=float)
    if spec.loss_kind == "logistic" and not (np.abs(labels) == 1.0).all():
        bad = labels[np.abs(labels) != 1.0]
        raise ValueError(f"logistic loss needs {name} in {{-1, +1}}, got {float(bad[0])}")


def _check_kappa(spec: ObjectiveSpec, S: Dataset | _Stack) -> None:
    """Raise unless every row of S is within kappa (1e-9 slack), every bound's premise."""
    if (max_norm := S.max_row_norm()) > spec.kappa * (1.0 + 1e-9):
        raise ValueError(f"feature rows violate the kappa bound: max norm {max_norm:.6g} > "
                         f"kappa={spec.kappa}")


def per_example_loss(spec: ObjectiveSpec, w: np.ndarray, x: np.ndarray, y: float):
    """Loss of the model w on a single item (x, y). No penalty term.

    Logistic: log(1 + exp(-y <w, x>)) with y in {-1, +1}.
    Squared:  (<w, x> - y)^2.

    ``w`` is one (d,) model, giving a float, or a (k, d) block of k models,
    giving k losses. Either way each margin is a (1, d) @ (d, 1) slice of
    one ``np.matmul``, the dot product a lone model's call runs, so a
    block's losses are the k one-model losses bit for bit.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2) or w.shape[-1:] != x.shape:
        raise ValueError(f"weight shape {w.shape} does not match x's {x.shape} "
                         f"as (d,) or (k, d)")
    _check_labels(spec, y, "y")
    return _per_column(_loss_values(spec, w[..., None], x[None, :], np.array([y]))[..., 0, 0])


def per_example_grad(spec: ObjectiveSpec, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient in w of the per-example loss (smooth part only, no penalty)."""
    x = np.asarray(x, dtype=float)
    w = _check_dims(w, x.shape[:1])
    _check_labels(spec, y, "y")
    c, sign = _loss_derivative(spec, np.array([x @ w]), np.array([float(y)]))
    return (sign * c[0]) * x


def _per_column(v):
    """A float for (d,) weights, one value per column for (m, d, K) weights."""
    return float(v) if v.ndim == 0 else v


def smooth_objective(spec: ObjectiveSpec, w: np.ndarray, S: Dataset | _Stack):
    """Mean loss plus the smooth (L2) penalty; excludes any L1 term."""
    w, axis = _weights_for(w, S), _sample_axis(S)
    mean_loss = _loss_values(spec, w, S.features, S.labels).mean(axis=axis)
    return _per_column(mean_loss + spec.l2_coefficient * (w * w).sum(axis=axis))


def objective(spec: ObjectiveSpec, w: np.ndarray, S: Dataset | _Stack):
    """Full regularized objective, exactly matching the declared penalty mode."""
    w = _weights_for(w, S)
    val = smooth_objective(spec, w, S)
    c1 = spec.l1_coefficient
    if c1 > 0:
        val = _per_column(val + c1 * np.abs(w).sum(axis=_sample_axis(S)))
    return val


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS
        return os.cpu_count() or 1


class _Worker:
    """One daemon thread that runs the jobs callers hand it, one at a time.

    Two locks serve as binary semaphores: a caller sets ``job`` and releases
    ``start``; the thread runs the job, drops it, so that no array of the
    call outlives the call, and releases ``done``. The caller that holds
    ``busy`` owns the worker until ``finish``.
    """

    def __init__(self):
        self.busy, self.start, self.done = threading.Lock(), threading.Lock(), threading.Lock()
        self.start.acquire()
        self.done.acquire()
        self.job = self.error = None
        threading.Thread(target=self._serve, name="stabledp-runs", daemon=True).start()

    def _serve(self):
        while True:
            self.start.acquire()
            job, self.job = self.job, None
            try:
                job()
            except BaseException as e:  # the caller raises it again, so the thread lives
                self.error = e
            del job
            self.done.release()

    def finish(self) -> BaseException | None:
        """Wait for the job, free the worker, and return what the job raised, if anything."""
        self.done.acquire()
        error, self.error = self.error, None
        self.busy.release()
        return error


_worker = None  # the runs' worker, started by the first call that hands it runs
_worker_made = threading.Lock()


def _free_worker() -> _Worker | None:
    """The worker, now held by this caller; None on one usable CPU or while another
    thread's call holds it."""
    global _worker
    if _usable_cpus() < 2:
        return None
    with _worker_made:
        if _worker is None:
            _worker = _Worker()
        worker = _worker
    return worker if worker.busy.acquire(blocking=False) else None


def _forget_worker() -> None:
    """In a forked child, which has no copy of the parent's worker thread."""
    global _worker, _worker_made
    _worker, _worker_made = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # no fork, and no hook, on Windows
    os.register_at_fork(after_in_child=_forget_worker)


def _in_runs(count: int, size: int, step, buffers: np.ndarray):
    """``step(run, buffer)`` for each run ``slice(lo, lo + size)`` of ``count`` datasets.

    With more than one run and a free worker, the caller takes runs 0, 2,
    4, ... with ``buffers[0]`` while the worker takes runs 1, 3, ... with
    ``buffers[1]``, under the caller's numpy error state; otherwise the
    caller takes every run with ``buffers[0]``. A step writes only its own
    run's slice of the result, so the bytes do not depend on the schedule.
    An exception of either thread is raised here, once both have stopped.
    Returns the value of the caller's last step.
    """
    runs = [slice(lo, lo + size) for lo in range(0, count, size)]
    worker = _free_worker() if len(runs) > 1 else None
    if worker is None:
        for run in runs:
            value = step(run, buffers[0])
        return value
    state = np.geterr()
    call = np.geterrcall()

    def job():
        with np.errstate(call=call, **state):
            for run in runs[1::2]:
                step(run, buffers[1])

    worker.job = job
    worker.start.release()
    try:
        for run in runs[::2]:
            value = step(run, buffers[0])
    finally:
        error = worker.finish()
    if error is not None:
        raise error
    return value


def gradient(spec: ObjectiveSpec | Sequence[ObjectiveSpec], w: np.ndarray,
             S: Dataset | _Stack) -> np.ndarray:
    """Gradient of the smooth part (mean loss + L2 term).

    The L1 term contributes no gradient here; solvers handle it through a
    proximal step.

    ``spec`` may be a grid of specs of one loss kind (see ``_grid_of``)
    when S is a stack: w is then the (m, L, d, K) iterate of its L specs,
    slice [:, l] spec l's weights, and each slice takes its own spec's L2
    term. Each dataset's features broadcast against the grid axis, so one
    read of a dataset's X serves every spec from cache, and each
    (dataset, spec) slice runs the products of its lone call, bit for bit.

    A stack with more than ``_RUN_BYTES`` of features is taken in runs of
    consecutive datasets, as many as fit in ``_RUN_BYTES`` and at least
    one: each run's forward product, loss derivative and backward product
    follow one another, so the backward product reads the run's features
    from cache. When two or more CPUs are usable, the caller takes every
    other run and one worker thread the rest (``_in_runs``), each thread
    with its own margin buffer. Runs split the stack only between datasets,
    each run writes only its own slice of the gradient, and each slice's
    products are its own, so every run schedule, threaded or not, gives the
    same bytes.
    """
    X, Y = S.features, S.labels
    if isinstance(spec, ObjectiveSpec):
        w, l2 = _weights_for(w, S), 2.0 * spec.l2_coefficient
    else:
        _require("S's type", type(S), lambda t: t is _Stack, "_Stack for a grid of specs",
                 type)
        specs = _grid_of(spec)
        spec = specs[0]  # the grid's one loss kind
        w = _check_dims(w, (len(X), len(specs), S.d, Y.shape[-1]))
        l2 = np.array([2.0 * s.l2_coefficient for s in specs])[:, None, None]
        X, Y = X[:, None], Y[:, None]  # every dataset against every spec of the grid
    if X.ndim == 2 or X.nbytes <= _RUN_BYTES:  # one run, with no per-run views
        c, sign = _loss_derivative(spec, X @ w, Y)
        g = X.swapaxes(-1, -2) @ c
    else:
        size = max(1, _RUN_BYTES // X[0].nbytes)
        g = np.empty(w.shape)

        def step(run, z):  # writes g[run] alone
            c, sign = _loss_derivative(
                spec, np.matmul(X[run], w[run], out=z[:len(w[run])]), Y[run])
            np.matmul(X[run].swapaxes(-1, -2), c, out=g[run])
            return sign

        # one margin buffer per thread, which each of its runs' forward products overwrites
        z = np.empty((2, min(size, len(X))) + w.shape[1:-2] + Y.shape[-2:])
        sign = _in_runs(len(X), size, step, z)
    g /= sign * S.n
    g += l2 * w
    return g


def strong_convexity_constant(spec: ObjectiveSpec) -> float:
    """Strong-convexity constant of the full objective: 2 * l2_coefficient.

    For the (lam/2)||w||^2 penalty this equals lam; for the elastic penalty
    it equals 2 * lam * gamma.
    """
    c = 2.0 * spec.l2_coefficient
    if c <= 0:
        raise ValueError("objective not strongly convex (zero L2 regularization)")
    return c
