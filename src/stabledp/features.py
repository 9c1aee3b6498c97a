"""Feature selection by thresholding (possibly noisy) elastic-net weights.

Non-private selection keeps every feature with a nonzero weight; private
selection thresholds the noisy weights at T, either a static cutoff or one
set dynamically from the noise standard deviation. ``flip_probability``
gives the closed-form chance that a private decision disagrees with the
non-private one at a given threshold; its implied noise scale is
2 L sqrt(kappa) / (epsilon lam eta sqrt(n)). That scale is written with
eta where the elastic-net release scale carries gamma, so the two do not
coincide under eta = 1 - gamma; the Monte-Carlo oracle in ``verify``
measures against the formula exactly as stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureDecision",
    "select_features",
    "dynamic_threshold",
    "lemma_noise_scale",
    "flip_probability",
    "f1_similarity",
]

SOURCES = ("non_private", "private_static_T", "private_dynamic_T")


@dataclass(frozen=True)
class FeatureDecision:
    """Binary keep/drop vector with the threshold that produced it."""

    decisions: np.ndarray
    threshold_T: float
    source: str = "non_private"

    def __post_init__(self):
        d = np.asarray(self.decisions)
        if not np.all((d == 0) | (d == 1)):
            raise ValueError("decisions must be 0/1")
        if not self.threshold_T >= 0:  # false for NaN too
            raise ValueError(f"threshold_T must be >= 0, got {self.threshold_T}")
        if self.source not in SOURCES:
            raise ValueError(f"source must be one of {SOURCES}")
        arr = d.astype(np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "decisions", arr)

    @property
    def selected_count(self) -> int:
        return int(self.decisions.sum())


def select_features(w: np.ndarray, T: float, source: str = "non_private") -> FeatureDecision:
    """Keep feature i iff |w_i| > T. T = 0 reproduces the nonzero-weight rule."""
    if not T >= 0:  # false for NaN too; T = inf selects nothing
        raise ValueError(f"T must be >= 0, got {T}")
    w = np.asarray(w, dtype=float)
    return FeatureDecision(decisions=(np.abs(w) > T).astype(np.int8),
                           threshold_T=float(T), source=source)


def dynamic_threshold(noise_scale_b: float, multiplier_k: float = 1.0) -> float:
    """Threshold at k standard deviations of Laplace(b) noise: k * sqrt(2) * b."""
    if not 0 <= noise_scale_b < math.inf:
        raise ValueError(f"noise_scale_b must be finite and >= 0, got {noise_scale_b}")
    if not 0 < multiplier_k < math.inf:
        raise ValueError(f"multiplier_k must be finite and > 0, got {multiplier_k}")
    return multiplier_k * math.sqrt(2.0) * noise_scale_b


def lemma_noise_scale(epsilon: float, lam: float, eta: float, n: int,
                      L: float, kappa: float) -> float:
    """Per-coordinate noise scale implied by the flip-probability formula."""
    for name, v in (("epsilon", epsilon), ("lam", lam), ("eta", eta),
                    ("n", n), ("L", L), ("kappa", kappa)):
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    return 2.0 * L * math.sqrt(kappa) / (epsilon * lam * eta * math.sqrt(n))


def flip_probability(T: float, w_i: float, epsilon: float, lam: float, eta: float,
                     n: int, L: float, kappa: float) -> float:
    """P[private decision differs from non-private] at threshold T.

    Closed form exp(-epsilon |T - |w_i|| lam eta sqrt(n) / (2 L sqrt(kappa))),
    in (0, 1]; equals 1 at |w_i| = T.
    """
    if not T > 0:  # false for NaN too
        raise ValueError(f"T must be > 0, got {T}")
    b = lemma_noise_scale(epsilon, lam, eta, n, L, kappa)
    return math.exp(-abs(T - abs(w_i)) / b)


def f1_similarity(a: FeatureDecision, b: FeatureDecision) -> float:
    """F1 of b's selected set against a's (a is the reference selection).

    Both selections empty counts as perfect agreement (1.0); an empty b
    against a nonempty a scores 0.
    """
    da, db = a.decisions, b.decisions
    if da.shape != db.shape:
        raise ValueError(f"decision lengths differ: {da.shape} vs {db.shape}")
    tp = int(np.sum((da == 1) & (db == 1)))
    fp = int(np.sum((da == 0) & (db == 1)))
    fn = int(np.sum((da == 1) & (db == 0)))
    if tp + fp + fn == 0:
        return 1.0
    if tp == 0:
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)
