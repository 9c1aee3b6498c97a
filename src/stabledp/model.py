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
evaluates bit for bit as its dataset would alone.

Every type and range check of the package's inputs goes through one rule,
``_require``: the type first (a real number, an integer, numpy's included,
or a named type; a bool is never a number), then the valid range, stated
so that NaN fails it, with the error naming the parameter or config field.
"""

from __future__ import annotations

import math
import numbers
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
        return float(np.max(np.linalg.norm(self.features, axis=1)))

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.features[idx], self.labels[idx])

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

    K label columns share each dataset's features: K = 1 for datasets
    stacked by :func:`_stack`, one one-vs-rest column per class for a
    config's signed training splits.
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
    def _max_row_norm(self) -> float:  # row by row: no X-sized temporary
        return float(np.sqrt(np.einsum("mnd,mnd->mn", self.features, self.features).max()))

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


def _stack(datasets: Sequence[Dataset]) -> _Stack:
    """The stack of same-shape datasets, K = 1; it holds m*n*d floats."""
    datasets = list(datasets)
    if not datasets:
        raise ValueError("a block needs at least one dataset")
    n, d = datasets[0].n, datasets[0].d
    for D in datasets:
        if D.features.shape != (n, d):
            raise ValueError(f"every dataset needs features {(n, d)}, got {D.features.shape}")
    return _Stack(np.stack([D.features for D in datasets]),
                  np.stack([D.labels for D in datasets])[:, :, None])


@dataclass(frozen=True)
class ObjectiveSpec:
    """Loss kind, penalty, and the analytic constants attached to them.

    ``lipschitz_L`` is the Lipschitz constant of the per-example loss in w
    over the feasible region. For logistic loss with row norms bounded by
    kappa it defaults to kappa (|sigmoid - label| <= 1). For squared loss
    it must be supplied when a stability bound needs it.
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
            _require("lipschitz_L", self.lipschitz_L, *_POSITIVE)

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


def _loss_derivative(spec: ObjectiveSpec, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d loss / d z at the margins z = <w, x>, elementwise, in z's buffer: z, a fresh
    product, is overwritten."""
    if spec.loss_kind == "logistic":
        # d/dz log(1+exp(-y z)) = -y sigmoid(-y z) = -(y / (1 + exp(y z)))
        np.multiply(y, z, out=z)
        np.exp(z, out=z)
        z += 1.0
        np.divide(y, z, out=z)
        return np.negative(z, out=z)
    np.subtract(z, y, out=z)
    z *= 2.0
    return z


def _check_labels(spec: ObjectiveSpec, labels, name: str = "labels") -> None:
    """Raise unless the loss can back every label: the logistic loss needs +/-1.

    Its L = kappa assumes |sigmoid - label| <= 1. The error names ``name``.
    """
    labels = np.asarray(labels, dtype=float)
    if spec.loss_kind == "logistic" and not (np.abs(labels) == 1.0).all():
        bad = labels[np.abs(labels) != 1.0]
        raise ValueError(f"logistic loss needs {name} in {{-1, +1}}, got {float(bad[0])}")


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
    return _loss_derivative(spec, np.array([x @ w]), np.array([float(y)]))[0] * x


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


def gradient(spec: ObjectiveSpec, w: np.ndarray, S: Dataset | _Stack) -> np.ndarray:
    """Gradient of the smooth part (mean loss + L2 term).

    The L1 term contributes no gradient here; solvers handle it through a
    proximal step.
    """
    w = _weights_for(w, S)
    X = S.features
    c = _loss_derivative(spec, X @ w, S.labels)
    return (X.swapaxes(-1, -2) @ c) / S.n + 2.0 * spec.l2_coefficient * w


def strong_convexity_constant(spec: ObjectiveSpec) -> float:
    """Strong-convexity constant of the full objective: 2 * l2_coefficient.

    For the (lam/2)||w||^2 penalty this equals lam; for the elastic penalty
    it equals 2 * lam * gamma.
    """
    c = 2.0 * spec.l2_coefficient
    if c <= 0:
        raise ValueError("objective not strongly convex (zero L2 regularization)")
    return c
