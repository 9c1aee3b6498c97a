"""Feature selection by thresholding (possibly noisy) elastic-net weights.

A selection is a boolean keep mask of the weights' shape, one row per split
of a (splits x weights) block. Non-private selection keeps every nonzero
weight (T = 0); private selection thresholds the noisy weights at a static T
or one set from the noise standard deviation (``privacy.Noise.threshold``).
``f1_similarity`` scores masks row by row; ``flip_probability`` gives, per
weight, the closed-form chance under a ``Noise`` that a private decision
disagrees with the non-private one. The flip lemma's ``lemma_noise`` has
scale 2 L sqrt(kappa) / (epsilon lam eta sqrt(n)): it carries eta where the
elastic-net release scale carries gamma, so the two do not coincide under
eta = 1 - gamma; the ``verify`` oracle measures the formula as stated.
"""

from __future__ import annotations

import math

import numpy as np

from .model import _COUNT, _POSITIVE, _require, _require_each
from .privacy import Noise

__all__ = [
    "select_features",
    "lemma_noise",
    "flip_probability",
    "f1_similarity",
]


def select_features(w, T: float) -> np.ndarray:
    """Keep mask of w's shape: keep i iff |w_i| > T. T = 0 reproduces the nonzero-weight rule."""
    _require("T", T, lambda v: v >= 0, ">= 0")  # T = inf selects nothing
    return np.abs(np.asarray(w, dtype=float)) > T


def lemma_noise(epsilon: float, lam: float, eta: float, n: int, L: float,
                kappa: float) -> Noise:
    """The per-coordinate noise the flip lemma assumes, not the release's (module docstring)."""
    _require_each(_POSITIVE, epsilon=epsilon, lam=lam, eta=eta, L=L, kappa=kappa)
    _require("n", n, *_COUNT)
    return Noise(2.0 * L * math.sqrt(kappa) / (epsilon * lam * eta * math.sqrt(n)),
                 epsilon=epsilon)


def flip_probability(T: float, w, noise: Noise):
    """P[private decision differs from non-private] at threshold T, per weight.

    Closed form ``noise.tail(|T - |w_i||)``, in (0, 1]; equals 1 at
    |w_i| = T. An array w gives an array of its shape, a scalar w a float.
    """
    _require("T", T, lambda v: v > 0, "> 0")
    p = noise.tail(np.abs(T - np.abs(np.asarray(w, dtype=float))))
    return float(p) if p.ndim == 0 else p


def f1_similarity(a, b):
    """F1 of mask b's selection against reference mask a's, one per row of the last axis.

    Both empty scores 1.0; an empty b against a nonempty a scores 0. 1-D
    masks give a float.
    """
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask lengths differ: {a.shape} vs {b.shape}")
    tp, wrong = np.sum(a & b, axis=-1), np.sum(a != b, axis=-1)  # wrong = fp + fn
    f1 = np.where(tp + wrong == 0, 1.0, 2.0 * tp / np.maximum(2 * tp + wrong, 1))
    return float(f1) if f1.ndim == 0 else f1
