"""Laplace mechanism, the one calibration and the one release path.

``calibrate`` is the only code that turns a stability certificate into a
per-coordinate Laplace scale. Two calibrations exist, and every release
records which one it used:

* ``"derived"``:  sqrt(d) * sqrt(2 beta / lambda_sc), the strong-convexity
                  L2 sensitivity converted to an L1 bound. This is the
                  calibration under which epsilon-DP of the d-dimensional
                  release is provable.
* ``"verbatim"``: sqrt(4 beta / lambda_sc), which for an elastic-net
                  certificate (lambda_sc = 2 lam gamma) is the classical
                  recipe sqrt(2 beta / (lam gamma)) of Chaudhuri, Monteleoni
                  & Sarwate (2011) as written. It is defined for elastic-net
                  certificates only, and in d > 1 it adds less noise than
                  the provable calibration.

``perturb`` is the one place Laplace noise is added to model weights;
``release``, the CLI and the ``verify`` oracles all go through it.
``release`` trains an objective, certifies it with ``stability.spec_cert``,
calibrates, and perturbs.

``dp_micro_check`` is an empirical histogram likelihood-ratio test of the
DP inequality on a 1-D release; it is a necessary-condition check, not a
proof. It returns the ``OracleReport`` every empirical check returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import _COUNT, _POSITIVE, Dataset, ObjectiveSpec, _one_of, _require
from .optimizer import solve_erm
from .rng import derive_rng
from .stability import StabilityCert, sensitivity_via_strong_convexity, spec_cert

__all__ = [
    "PrivateRelease",
    "laplace_sample",
    "perturb",
    "calibrate",
    "release",
    "OracleReport",
    "dp_micro_check",
    "wilson_interval",
]

CALIBRATIONS = ("verbatim", "derived")


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
    """Perturbed weights plus the (epsilon, sensitivity, scale, calibration) that made them."""

    noisy_weights: np.ndarray
    epsilon: float
    sensitivity_used: float
    noise_scale: float
    calibration: str

    def __post_init__(self):
        _require("epsilon", self.epsilon, *_POSITIVE)
        if self.noise_scale != self.sensitivity_used / self.epsilon:
            raise ValueError("noise_scale must equal sensitivity_used / epsilon")
        _require("calibration", self.calibration, *_one_of(CALIBRATIONS))


def laplace_sample(scale_b: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` independent Laplace(0, b) values by inverse CDF.

    Mean 0, variance 2 b^2. The uniform stream comes from the supplied
    generator, so draws are reproducible.
    """
    _require("scale_b", scale_b, *_POSITIVE)
    u = rng.random(count) - 0.5  # in [-0.5, 0.5)
    # guard the measure-zero u = -0.5 endpoint so log1p never sees -1
    mag = np.minimum(np.abs(u), np.nextafter(0.5, 0))
    return -scale_b * np.sign(u) * np.log1p(-2.0 * mag)


def perturb(W: np.ndarray, scale_b: float, rng: np.random.Generator) -> np.ndarray:
    """A fresh copy of W plus i.i.d. Laplace(0, scale_b) noise on every entry.

    Draws ``W.size`` values in row-major order; ``scale_b == 0`` draws
    nothing and returns an exact copy.
    """
    W = np.asarray(W, dtype=float)
    if scale_b == 0:
        return W.copy()
    return W + laplace_sample(scale_b, W.size, rng).reshape(W.shape)


def calibrate(cert: StabilityCert, d: int, epsilon: float, calibration: str) -> tuple:
    """(sensitivity used, per-coordinate Laplace scale) for a d-dimensional release.

    See the module docstring for the two calibrations; ``"verbatim"``
    raises ValueError unless the certificate comes from the elastic-net
    formula.
    """
    _require("epsilon", epsilon, *_POSITIVE)
    _require("d", d, *_COUNT)
    _require("calibration", calibration, *_one_of(CALIBRATIONS))
    if calibration == "derived":
        sens = math.sqrt(d) * sensitivity_via_strong_convexity(cert)
    else:
        if cert.provenance != "elastic_net":
            raise ValueError(
                f"the verbatim calibration is stated for elastic-net certificates, "
                f"got {cert.provenance!r}")
        sens = math.sqrt(4.0 * cert.beta / cert.lambda_sc)
    return sens, sens / epsilon


def release(spec: ObjectiveSpec, S: Dataset, epsilon: float, *, calibration: str,
            rng: np.random.Generator, tolerance: float = 1e-8) -> PrivateRelease:
    """Train ``spec`` on S, then release its weights with calibrated Laplace noise.

    Requires every feature row to satisfy the spec's kappa bound (the
    stability constant is meaningless otherwise). The scale is calibrated
    before the solve, so a bad calibration fails without training. Solver
    failures (``ConvergenceError``) propagate unchanged.
    """
    max_norm = S.max_row_norm()
    if max_norm > spec.kappa * (1.0 + 1e-9):
        raise ValueError(
            f"feature rows violate the kappa bound: max norm {max_norm:.6g} > kappa={spec.kappa}"
        )
    sens, scale = calibrate(spec_cert(spec, S.n), S.d, epsilon, calibration)
    return PrivateRelease(
        noisy_weights=perturb(solve_erm(spec, S, tolerance).weights, scale, rng),
        epsilon=epsilon,
        sensitivity_used=sens,
        noise_scale=scale,
        calibration=calibration,
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
    # an infinite epsilon gives an infinite threshold, which any release passes
    _require("epsilon", epsilon, *_POSITIVE)
    _require("samples", samples, *_COUNT)
    a = np.asarray(release_fn(S, derive_rng(seed, 101), samples), dtype=float)
    b = np.asarray(release_fn(S_neighbor, derive_rng(seed, 202), samples), dtype=float)
    pooled = np.concatenate([a, b])
    center = float(np.median(pooled))
    # |pooled - center| in place: one fewer 2 * samples array held at once
    np.abs(np.subtract(pooled, center, out=pooled), out=pooled)
    scale_hat = float(np.mean(pooled))  # Laplace MLE scale
    del pooled
    if scale_hat <= 0:
        scale_hat = max(float(np.std(np.concatenate([a, b]))), 1e-12)
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
