"""Core data types, loss functions, and their analytic constants.

A classification/regression problem is a ``Dataset`` (feature matrix plus
labels) together with an ``ObjectiveSpec`` describing the loss and the
regularization penalty. Two penalty modes exist:

* ``l2``:      mean loss + c * ||w||^2 with c = lam/2 (``l2_form="half"``,
               the default) or c = lam (``l2_form="full"``). The factor is
               explicit because both conventions are common and silently
               mixing them doubles or halves every downstream noise scale.
* ``elastic``: mean loss + lam * (gamma * ||w||^2 + eta * ||w||_1), with
               eta defaulting to 1 - gamma.

The strong-convexity constant of the full objective is always
``2 * l2_coefficient``; sensitivity and noise-scale formulas elsewhere in
the package take that constant, never the raw ``lam`` symbol.

Weight vectors are plain 1-D float64 ``numpy`` arrays. A dataset whose
labels are an (n, m) matrix holds m problems on one feature matrix (one
one-vs-rest column per class, say); its weights are a (d, m) matrix, one
column per label column, and ``smooth_objective``/``objective`` return one
value per column. The loss functions take, in place of a ``Dataset``, a
stack of m same-shape datasets (``_stack``): (m, n, d) features with
(n, m) labels, the same label layout, so column j of the (d, m) weights is
evaluated on the j-th dataset. One margin helper and its back-projection
are the only code that tells the two apart.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
L2_FORMS = ("half", "full")


def _is_int(v) -> bool:
    """An integer, numpy's included; a bool is not a count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n x d) with one label per row, or one label row per row.

    Rows are immutable after construction and safe to share across workers.
    Labels may be class indices or +/-1; binary mapping happens at training
    time via :func:`as_signed_labels`. (n, m) labels stack m label columns
    over the same features.
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
        if y.ndim not in (1, 2) or y.shape[0] != X.shape[0]:
            raise ValueError(f"labels shape {y.shape} does not match n={X.shape[0]}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite entries")
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

    def replace_record(self, i: int, x: np.ndarray, y: float) -> "Dataset":
        """Neighboring dataset: record i swapped for (x, y)."""
        X = np.array(self.features)
        lab = np.array(self.labels)
        X[i] = np.asarray(x, dtype=float)
        lab[i] = float(y)
        return Dataset(X, lab)


class _Stack(NamedTuple):
    """m same-shape datasets: (m, n, d) features and (n, m) labels, column j from dataset j."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def d(self) -> int:
        return self.features.shape[2]


def _stack(datasets: Sequence[Dataset]) -> _Stack:
    """The stack of same-shape datasets with 1-D labels; it holds m*n*d floats."""
    datasets = list(datasets)
    if not datasets:
        raise ValueError("a block needs at least one dataset")
    n, d = datasets[0].n, datasets[0].d
    for D in datasets:
        if D.features.shape != (n, d) or D.labels.shape != (n,):
            raise ValueError(
                f"every dataset needs features {(n, d)} and labels {(n,)}, got "
                f"{D.features.shape} and {D.labels.shape}")
    return _Stack(np.stack([D.features for D in datasets]),
                  np.stack([D.labels for D in datasets], axis=1))


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
    l2_form: str = "half"

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.penalty not in PENALTIES:
            raise ValueError(f"penalty must be one of {PENALTIES}, got {self.penalty!r}")
        if self.l2_form not in L2_FORMS:
            raise ValueError(f"l2_form must be one of {L2_FORMS}, got {self.l2_form!r}")
        # every comparison with NaN is false, so each guard tests the valid range
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and > 0, got {self.kappa}")
        if self.eta is None and self.penalty == "elastic":
            object.__setattr__(self, "eta", 1.0 - self.gamma)
        if self.eta is not None and not 0 <= self.eta < math.inf:
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if self.lipschitz_L is None and self.loss_kind == "logistic":
            object.__setattr__(self, "lipschitz_L", self.kappa)
        if self.lipschitz_L is not None and not 0 < self.lipschitz_L < math.inf:
            raise ValueError(f"lipschitz_L must be finite and > 0, got {self.lipschitz_L}")

    @property
    def l2_coefficient(self) -> float:
        """c such that the smooth penalty is c * ||w||^2."""
        if self.penalty == "elastic":
            return self.lam * self.gamma
        return self.lam * (0.5 if self.l2_form == "half" else 1.0)

    @property
    def l1_coefficient(self) -> float:
        """c such that the nonsmooth penalty is c * ||w||_1."""
        if self.penalty == "elastic":
            return self.lam * (self.eta if self.eta is not None else 1.0 - self.gamma)
        return 0.0

    @property
    def L(self) -> float:
        if self.lipschitz_L is None:
            raise ValueError("lipschitz_L was not declared for this objective")
        return self.lipschitz_L


def as_signed_labels(labels: np.ndarray, positive=None) -> np.ndarray:
    """Map labels to +/-1. With ``positive`` given, one-vs-rest binarization.

    A 1-D array of positives gives an (n, m) matrix, one column per class.
    """
    y = np.asarray(labels, dtype=float)
    if positive is not None:
        return np.where(np.equal.outer(y, positive), 1.0, -1.0)
    vals = np.unique(y)
    if set(vals.tolist()) <= {-1.0, 1.0}:
        return y
    if vals.size != 2:
        raise ValueError(
            f"labels take {vals.size} distinct values; pass `positive` for one-vs-rest"
        )
    return np.where(y == vals[1], 1.0, -1.0)


def _check_dims(w: np.ndarray, shape: tuple) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != shape:
        raise ValueError(f"weight shape {w.shape} does not match the expected {shape}")
    return w


def _weights_for(w: np.ndarray, S: Dataset | _Stack) -> np.ndarray:
    """w checked against S: (d,) for 1-D labels, (d, m) for (n, m) labels or a stack."""
    return _check_dims(w, (S.d,) + S.labels.shape[1:])


def _softplus(z):
    # log(1 + exp(z)), stable for large |z|
    z = np.asarray(z, dtype=float)
    return np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)


def _margin_loss(spec: ObjectiveSpec, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Loss at the margins z = <w, x>, elementwise."""
    if spec.loss_kind == "logistic":
        return _softplus(-y * z)
    return (z - y) ** 2


def _margins(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X @ w for (n, d) features; for an (m, n, d) stack, column j is X[j] @ w[:, j]."""
    return X @ w if X.ndim == 2 else np.einsum("mnd,dm->nm", X, w)


def _back_project(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X.T @ c for (n, d) features; for an (m, n, d) stack, column j is X[j].T @ c[:, j]."""
    return X.T @ c if X.ndim == 2 else np.einsum("mnd,nm->dm", X, c)


def _loss_values(spec: ObjectiveSpec, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-example losses; a (d, k) ``w`` with (n, 1) ``y`` gives one column per model."""
    return _margin_loss(spec, _margins(X, w), y)


def _loss_derivative(spec: ObjectiveSpec, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d loss / d z at the margins z = <w, x>, elementwise."""
    if spec.loss_kind == "logistic":
        # d/dz log(1+exp(-y z)) = -y sigmoid(-y z)
        return -y / (1.0 + np.exp(y * z))
    return 2.0 * (z - y)


def per_example_loss(spec: ObjectiveSpec, w: np.ndarray, x: np.ndarray, y: float) -> float:
    """Loss of the model w on a single item (x, y). No penalty term.

    Logistic: log(1 + exp(-y <w, x>)) with y in {-1, +1}.
    Squared:  (<w, x> - y)^2.
    """
    x = np.asarray(x, dtype=float)
    w = _check_dims(w, x.shape[:1])
    if spec.loss_kind == "logistic" and y not in (-1, 1):
        raise ValueError(f"logistic loss needs y in {{-1, +1}}, got {y}")
    return float(_loss_values(spec, w, x[None, :], np.array([y]))[0])


def per_example_grad(spec: ObjectiveSpec, w: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    """Gradient in w of the per-example loss (smooth part only, no penalty)."""
    x = np.asarray(x, dtype=float)
    w = _check_dims(w, x.shape[:1])
    return _loss_derivative(spec, float(x @ w), y) * x


def _per_column(v):
    """A float for 1-D weights, one value per column for (d, m) weights."""
    return float(v) if v.ndim == 0 else v


def smooth_objective(spec: ObjectiveSpec, w: np.ndarray, S: Dataset | _Stack):
    """Mean loss plus the smooth (L2) penalty; excludes any L1 term."""
    w = _weights_for(w, S)
    mean_loss = _loss_values(spec, w, S.features, S.labels).mean(axis=0)
    return _per_column(mean_loss + spec.l2_coefficient * (w * w).sum(axis=0))


def objective(spec: ObjectiveSpec, w: np.ndarray, S: Dataset | _Stack):
    """Full regularized objective, exactly matching the declared penalty mode."""
    w = _weights_for(w, S)
    val = smooth_objective(spec, w, S)
    c1 = spec.l1_coefficient
    if c1 > 0:
        val = _per_column(val + c1 * np.abs(w).sum(axis=0))
    return val


def gradient(spec: ObjectiveSpec, w: np.ndarray, S: Dataset | _Stack) -> np.ndarray:
    """Gradient of the smooth part (mean loss + L2 term).

    The L1 term contributes no gradient here; solvers handle it through a
    proximal step.
    """
    w = _weights_for(w, S)
    X = S.features
    g = _back_project(X, _loss_derivative(spec, _margins(X, w), S.labels)) / S.n
    return g + 2.0 * spec.l2_coefficient * w


def strong_convexity_constant(spec: ObjectiveSpec) -> float:
    """Strong-convexity constant of the full objective: 2 * l2_coefficient.

    Under the default (lam/2)||w||^2 convention this equals lam; for the
    elastic penalty it equals 2 * lam * gamma.
    """
    c = 2.0 * spec.l2_coefficient
    if c <= 0:
        raise ValueError("objective not strongly convex (zero L2 regularization)")
    return c
