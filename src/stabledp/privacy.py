"""Laplace mechanism, the one noise record, the one calibration and the one release path.

``Noise`` alone states the per-coordinate Laplace law. ``calibrate`` is the
only code that turns a stability certificate into a release's ``Noise``,
bar ``verify.empirical_privacy_error``, whose noise sits at the
strong-convexity sensitivity, the mechanism its bound is stated for. Two
calibrations exist, and every release records which one it used:

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

``perturb`` is the one place a ``Noise`` is drawn onto model weights;
``release``, the CLI and the ``verify`` oracles all go through it.
``release`` trains an objective, certifies it with ``stability.spec_cert``,
calibrates, and perturbs.

``dp_micro_check`` is an empirical histogram likelihood-ratio test of the
DP inequality on a 1-D release; it is a necessary-condition check, not a
proof. It returns the ``OracleReport`` every empirical check returns.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .model import _COUNT, _NONNEGATIVE, _POSITIVE, Dataset, ObjectiveSpec, _one_of, _require
from .optimizer import solve_erm
from .rng import derive_rng
from .stability import StabilityCert, sensitivity_via_strong_convexity, spec_cert

__all__ = [
    "Noise",
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
        return {**dataclasses.asdict(self), "passed": bool(self.passed)}

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name} [{status}]: empirical {self.empirical_value:.6g} vs "
            f"bound {self.bound_value:.6g} (margin {self.margin:.3g}, "
            f"{self.trials} trials)"
        )


@dataclass(frozen=True)
class Noise:
    """i.i.d. Laplace(0, scale) noise on every coordinate, and what set its scale.

    A record with a calibration has ``scale == sensitivity / epsilon``;
    ``scale == 0`` is no noise.
    """

    scale: float
    sensitivity: float | None = None
    epsilon: float | None = None
    calibration: str | None = None

    def __post_init__(self):
        _require("scale", self.scale, *_NONNEGATIVE)
        if self.calibration is not None:
            _require("calibration", self.calibration, *_one_of(CALIBRATIONS))
            _require("epsilon", self.epsilon, *_POSITIVE)
            _require("sensitivity", self.sensitivity, *_NONNEGATIVE)
            if self.scale != self.sensitivity / self.epsilon:
                raise ValueError("scale must equal sensitivity / epsilon")

    def threshold(self, k: float = 1.0) -> float:
        """k standard deviations of one coordinate: k * sqrt(2) * scale."""
        _require("k", k, *_POSITIVE)
        return k * math.sqrt(2.0) * self.scale

    def tail(self, t):
        """P(|b| > t) = exp(-t / scale) of one coordinate b, elementwise for t >= 0."""
        _require("scale", self.scale, *_POSITIVE)  # no noise has no tail
        return np.exp(-np.asarray(t, dtype=float) / self.scale)


@dataclass(frozen=True)
class PrivateRelease:
    """Perturbed weights plus the calibrated ``Noise`` that made them."""

    noisy_weights: np.ndarray
    noise: Noise

    def __post_init__(self):
        if self.noise.calibration is None:
            raise ValueError("a release needs a calibrated noise record")


def laplace_sample(scale_b: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` independent Laplace(0, b) values by inverse CDF.

    Mean 0, variance 2 b^2. The uniform stream comes from the supplied
    generator, so draws are reproducible. The value is
    sign(u) * b * -log1p(-2 |u|) for u uniform in [-0.5, 0.5), computed in
    place in two arrays of ``count`` floats; u = 0 gives +0.0.
    """
    _require("scale_b", scale_b, *_POSITIVE)
    u = rng.random(count)
    u -= 0.5  # in [-0.5, 0.5)
    mag = np.abs(u)
    # guard the measure-zero u = -0.5 endpoint so log1p never sees -1
    np.minimum(mag, np.nextafter(0.5, 0), out=mag)
    mag *= -2.0
    np.log1p(mag, out=mag)
    mag *= scale_b
    return np.copysign(mag, u, out=mag)


def perturb(W: np.ndarray, noise: Noise, rng: np.random.Generator) -> np.ndarray:
    """A fresh copy of W plus one draw of ``noise`` on every entry.

    Draws ``W.size`` values in row-major order; a zero scale draws nothing
    and returns an exact copy.
    """
    W = np.asarray(W, dtype=float)
    if noise.scale == 0:
        return W.copy()
    return W + laplace_sample(noise.scale, W.size, rng).reshape(W.shape)


def calibrate(cert: StabilityCert, d: int, epsilon: float, calibration: str) -> Noise:
    """The per-coordinate ``Noise`` of a d-dimensional release at ``epsilon``.

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
    return Noise(sens / epsilon, sens, epsilon, calibration)


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
    noise = calibrate(spec_cert(spec, S.n), S.d, epsilon, calibration)
    return PrivateRelease(perturb(solve_erm(spec, S, tolerance).weights, noise, rng), noise)


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
