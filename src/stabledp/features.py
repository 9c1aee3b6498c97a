"""Feature selection by thresholding (possibly noisy) elastic-net weights.

A selection is a boolean keep mask of the weights' shape, one row per split
of a (splits x weights) block. Non-private selection keeps every nonzero
weight (T = 0); private selection thresholds the noisy weights at a static T
or one set from the noise standard deviation. ``f1_similarity`` scores masks
row by row; ``flip_probability`` gives, per weight, the closed-form chance
that a private decision disagrees with the non-private one. Its implied
noise scale 2 L sqrt(kappa) / (epsilon lam eta sqrt(n)) carries eta where
the elastic-net release scale carries gamma, so the two do not coincide
under eta = 1 - gamma; the ``verify`` oracle measures the formula as stated.
"""

from __future__ import annotations

import math

import numpy as np

from .model import _COUNT, _NONNEGATIVE, _POSITIVE, _require, _require_each

__all__ = [
    "select_features",
    "dynamic_threshold",
    "lemma_noise_scale",
    "flip_probability",
    "f1_similarity",
]


def select_features(w, T: float) -> np.ndarray:
    """Keep mask of w's shape: keep i iff |w_i| > T. T = 0 reproduces the nonzero-weight rule."""
    _require("T", T, lambda v: v >= 0, ">= 0")  # T = inf selects nothing
    return np.abs(np.asarray(w, dtype=float)) > T


def dynamic_threshold(noise_scale_b: float, multiplier_k: float = 1.0) -> float:
    """Threshold at k standard deviations of Laplace(b) noise: k * sqrt(2) * b."""
    _require("noise_scale_b", noise_scale_b, *_NONNEGATIVE)
    _require("multiplier_k", multiplier_k, *_POSITIVE)
    return multiplier_k * math.sqrt(2.0) * noise_scale_b


def lemma_noise_scale(epsilon: float, lam: float, eta: float, n: int,
                      L: float, kappa: float) -> float:
    """Per-coordinate noise scale implied by the flip-probability formula."""
    _require_each(_POSITIVE, epsilon=epsilon, lam=lam, eta=eta, L=L, kappa=kappa)
    _require("n", n, *_COUNT)
    return 2.0 * L * math.sqrt(kappa) / (epsilon * lam * eta * math.sqrt(n))


def flip_probability(T: float, w, epsilon: float, lam: float, eta: float,
                     n: int, L: float, kappa: float):
    """P[private decision differs from non-private] at threshold T, per weight.

    Closed form exp(-epsilon |T - |w_i|| lam eta sqrt(n) / (2 L sqrt(kappa))),
    in (0, 1]; equals 1 at |w_i| = T. An array w gives an array of its
    shape, a scalar w a float.
    """
    _require("T", T, lambda v: v > 0, "> 0")
    b = lemma_noise_scale(epsilon, lam, eta, n, L, kappa)
    p = np.exp(-np.abs(T - np.abs(np.asarray(w, dtype=float))) / b)
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
