"""Laplace mechanism and the two stability-calibrated release algorithms.

``perturb`` is the one place Laplace noise is added to model weights;
``output_perturb``, ``private_elastic_net``, the CLI and the ``verify``
oracles release through it.

``output_perturb`` adds independent per-coordinate Laplace noise to trained
weights. Two calibrations exist:

* default:    per-coordinate scale = L1 sensitivity / epsilon, where the L1
              bound is sqrt(d) times the L2 bound. This is the calibration
              under which epsilon-DP of the d-dimensional release is
              provable.
* verbatim:   per-coordinate scale = L2 sensitivity / epsilon. This
              reproduces the classical release recipes literally; in d > 1
              it adds less noise than the provable calibration.

``private_elastic_net`` trains the elastic-net objective and releases with
scale sqrt(2 beta / (lam gamma)) / epsilon (mode "verbatim", the classical
recipe) or the strong-convexity sensitivity sqrt(2 beta / lambda_sc) with
lambda_sc = 2 lam gamma, converted to L1 (mode "derived"). The two differ
by a constant factor; both are exposed so experiments can state exactly
which calibration produced a figure.

``dp_micro_check`` is an empirical histogram likelihood-ratio test of the
DP inequality on a 1-D release; it is a necessary-condition check, not a
proof. It returns the ``OracleReport`` every empirical check returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Dataset, ObjectiveSpec
from .optimizer import solve_erm
from .rng import as_rng, derive_rng
from .stability import SensitivityBound, beta_elastic_net, sensitivity_via_strong_convexity

__all__ = [
    "PrivateRelease",
    "laplace_sample",
    "perturb",
    "output_perturb",
    "private_elastic_net",
    "OracleReport",
    "dp_micro_check",
    "wilson_interval",
]


@dataclass
class OracleReport:
    """Bound vs. observed value, with the margin and pass verdict."""

    name: str
    bound_value: float
    empirical_value: float
    trials: int
    margin: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bound_value": self.bound_value,
            "empirical_value": self.empirical_value,
            "trials": self.trials,
            "margin": self.margin,
            "passed": bool(self.passed),
            "details": self.details,
        }

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name} [{status}]: empirical {self.empirical_value:.6g} vs "
            f"bound {self.bound_value:.6g} (margin {self.margin:.3g}, "
            f"{self.trials} trials)"
        )


@dataclass(frozen=True)
class PrivateRelease:
    """Perturbed weights plus the (epsilon, sensitivity, scale) that made them."""

    noisy_weights: np.ndarray
    epsilon: float
    sensitivity_used: float
    noise_scale: float
    mechanism: str = "laplace_per_coordinate"
    seed: int | None = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.noise_scale != self.sensitivity_used / self.epsilon:
            raise ValueError("noise_scale must equal sensitivity_used / epsilon")


def laplace_sample(scale_b: float, count: int, rng) -> np.ndarray:
    """Draw ``count`` independent Laplace(0, b) values by inverse CDF.

    Mean 0, variance 2 b^2. The uniform stream comes from the supplied
    generator (or seed), so draws are reproducible.
    """
    if not 0 < scale_b < math.inf:
        raise ValueError(f"scale_b must be finite and > 0, got {scale_b}")
    rng = as_rng(rng)
    u = rng.random(count) - 0.5  # in [-0.5, 0.5)
    # guard the measure-zero u = -0.5 endpoint so log1p never sees -1
    mag = np.minimum(np.abs(u), np.nextafter(0.5, 0))
    return -scale_b * np.sign(u) * np.log1p(-2.0 * mag)


def perturb(W: np.ndarray, scale_b: float, rng) -> np.ndarray:
    """A fresh copy of W plus i.i.d. Laplace(0, scale_b) noise on every entry.

    Draws ``W.size`` values in row-major order; ``scale_b == 0`` draws
    nothing and returns an exact copy.
    """
    W = np.asarray(W, dtype=float)
    if scale_b == 0:
        return W.copy()
    return W + laplace_sample(scale_b, W.size, rng).reshape(W.shape)


def output_perturb(w: np.ndarray, sensitivity: SensitivityBound, epsilon: float,
                   rng=None, seed: int | None = None, verbatim: bool = False) -> PrivateRelease:
    """Add i.i.d. per-coordinate Laplace noise calibrated to a sensitivity bound.

    Uses the L1 value of the bound by default; ``verbatim=True`` uses the
    L2 value as the per-coordinate scale instead (see module docstring).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    sens = sensitivity.l2_value if verbatim else sensitivity.l1_value
    if not math.isfinite(sens):
        raise ValueError(f"sensitivity must be finite, got {sens}")
    scale = sens / epsilon
    return PrivateRelease(
        noisy_weights=perturb(w, scale, rng if rng is not None else seed),
        epsilon=epsilon,
        sensitivity_used=sens,
        noise_scale=scale,
        seed=seed,
    )


def elastic_release_scale(L: float, kappa: float, n: int, lam: float, gamma: float,
                          epsilon: float, d: int = 1, mode: str = "verbatim") -> tuple:
    """(sensitivity value, per-coordinate noise scale) for the elastic-net release."""
    cert = beta_elastic_net(L, kappa, n, lam, gamma)
    if mode == "verbatim":
        sens = math.sqrt(2.0 * cert.beta / (lam * gamma))
    elif mode == "derived":
        sens = sensitivity_via_strong_convexity(cert, d=d).l1_value
    else:
        raise ValueError(f"mode must be 'verbatim' or 'derived', got {mode!r}")
    return sens, sens / epsilon


def private_elastic_net(S: Dataset, lam: float, gamma: float, eta: float, epsilon: float,
                        L: float, kappa: float, loss_kind: str = "logistic",
                        rng=None, seed: int | None = None, tolerance: float = 1e-8,
                        mode: str = "verbatim") -> PrivateRelease:
    """Train the elastic-net objective, then release with calibrated noise.

    Requires every feature row to satisfy the declared kappa bound (the
    stability constant is meaningless otherwise). Solver failures
    propagate unchanged.
    """
    if lam <= 0 or gamma <= 0 or epsilon <= 0:
        raise ValueError("lam, gamma, and epsilon must all be > 0")
    max_norm = S.max_row_norm()
    if max_norm > kappa * (1.0 + 1e-9):
        raise ValueError(
            f"feature rows violate the kappa bound: max norm {max_norm:.6g} > kappa={kappa}"
        )
    spec = ObjectiveSpec(loss_kind, lam, penalty="elastic", gamma=gamma, eta=eta,
                         kappa=kappa, lipschitz_L=L)
    report = solve_erm(spec, S, tolerance)
    sens, scale = elastic_release_scale(L, kappa, S.n, lam, gamma, epsilon, d=S.d, mode=mode)
    return PrivateRelease(
        noisy_weights=perturb(report.weights, scale, rng if rng is not None else seed),
        epsilon=epsilon,
        sensitivity_used=sens,
        noise_scale=scale,
        seed=seed,
    )


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def dp_micro_check(release_fn, S: Dataset, S_neighbor: Dataset, epsilon: float,
                   bins: int = 20, samples: int = 1_000_000, seed: int = 0,
                   slack: float = 0.05, range_scales: float = 4.0,
                   min_count: int = 25) -> OracleReport:
    """Empirical test of the DP inequality on a 1-D release.

    ``release_fn(dataset, rng, size)`` must return ``size`` independent
    scalar releases. Frequencies are compared bin-by-bin over a window of
    ``range_scales`` noise scales around the pooled median; the check
    passes when every adequately-populated bin has a frequency ratio at
    most exp(epsilon) * (1 + slack). Bins with fewer than ``min_count``
    samples on either side are reported as inconclusive, not failed.

    The report's bound is that threshold, its empirical value the largest
    bin ratio, and its trials the sample count per dataset. ``details``
    counts the bins checked and inconclusive, and ``confident_violations``
    the bins whose Wilson-interval ratio lower bound already exceeds
    exp(epsilon).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    a = np.asarray(release_fn(S, derive_rng(seed, 101), samples), dtype=float)
    b = np.asarray(release_fn(S_neighbor, derive_rng(seed, 202), samples), dtype=float)
    pooled = np.concatenate([a, b])
    center = float(np.median(pooled))
    scale_hat = float(np.mean(np.abs(pooled - center)))  # Laplace MLE scale
    if scale_hat <= 0:
        scale_hat = max(float(np.std(pooled)), 1e-12)
    edges = np.linspace(center - range_scales * scale_hat,
                        center + range_scales * scale_hat, bins + 1)
    count_a, _ = np.histogram(a, bins=edges)
    count_b, _ = np.histogram(b, bins=edges)

    limit = math.exp(epsilon)
    threshold = limit * (1.0 + slack)
    max_ratio = 0.0
    checked = inconclusive = confident = 0
    table = []
    for i in range(bins):
        ca, cb = int(count_a[i]), int(count_b[i])
        if min(ca, cb) < min_count:
            inconclusive += 1
            table.append({"bin": i, "count_a": ca, "count_b": cb, "ratio": None})
            continue
        pa, pb = ca / samples, cb / samples
        ratio = max(pa / pb, pb / pa)
        checked += 1
        max_ratio = max(max_ratio, ratio)
        lo_a, hi_a = wilson_interval(ca, samples)
        lo_b, hi_b = wilson_interval(cb, samples)
        ratio_lower = max(lo_a / hi_b if hi_b > 0 else 0.0,
                          lo_b / hi_a if hi_a > 0 else 0.0)
        if ratio_lower > limit:
            confident += 1
        table.append({"bin": i, "count_a": ca, "count_b": cb, "ratio": ratio,
                      "ratio_lower": ratio_lower})
    return OracleReport(
        name="dp_micro_check",
        bound_value=threshold,
        empirical_value=max_ratio,
        trials=samples,
        margin=threshold - max_ratio,
        passed=checked > 0 and max_ratio <= threshold,
        details={"epsilon": epsilon, "slack": slack, "bins_checked": checked,
                 "bins_inconclusive": inconclusive,
                 "confident_violations": confident, "bin_table": table},
    )
