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

``perturb`` is the one place noise is drawn: it draws a ``Noise`` onto
model weights, or onto any statistic, into the array it returns; the
release, the ``verify`` oracles and the dp suite's samplers all go through
it. ``release`` is the one path from an objective, or a grid of them, and
its data to released weights, for the CLI and the library alike: it
certifies, calibrates, trains the grid in one solve and perturbs, and
returns one ``Release`` per spec and epsilon.

``dp_micro_check`` is an empirical histogram likelihood-ratio test of the
DP inequality on a 1-D release; it is a necessary-condition check, not a
proof. It takes the release's two samplers, one on S and one on its
neighbour, and returns the ``OracleReport`` every empirical check returns.
The bins' window is placed by held-out pilot draws, 1/64 of the sample
count from each sampler on streams of their own: their median is the
window's centre and their mean absolute deviation from it the estimated
noise scale. Each sampler's counted release is then drawn from its one
generator in blocks of at most 16 384 values, each checked, binned and
dropped before the next is drawn, so the memory the check holds follows
the pilot, not the sample count. A sampler is therefore called several
times on its one generator, with sizes up to the block; the shipped
samplers, ``perturb`` over a statistic, draw one generator word per value
in order, so their joined blocks are the values of one ``samples``-sized
call. ``verify.flip_rate_check`` counts its flips through the same blocks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import (
    _COUNT,
    _NONNEGATIVE,
    _POSITIVE,
    Dataset,
    ObjectiveSpec,
    _at_least,
    _check_kappa,
    _grid_of,
    _one_of,
    _require,
    _Stack,
)
from .optimizer import SolveReport, _spec_report, solve_erm
from .rng import derive_rng, float_key
from .stability import StabilityCert, sensitivity_via_strong_convexity, spec_cert

__all__ = [
    "Noise",
    "Release",
    "laplace_sample",
    "perturb",
    "calibrate",
    "release",
    "OracleReport",
    "dp_micro_check",
    "wilson_interval",
]

CALIBRATIONS = ("verbatim", "derived")

# values per block of a draw: ``laplace_sample`` transforms its uniforms in
# blocks of this size, and ``_count_blocks`` holds one block of a counted draw
# at a time. At 128 KiB glibc's malloc reuses a block's buffers for the next
# block: a fresh `verify dp` took 1 023 minor page faults at this size, and
# 18 311 at 32 768 values or 20 952 at 65 536, where they went back to the kernel
_DRAW_BLOCK = 16_384

# ``dp_micro_check``'s bins, their half-width in estimated noise scales, the
# count a bin needs on both sides to be checked, the slack on exp(epsilon),
# and the divisor of the sample count that gives each dataset's pilot draw
_BINS = 20
_RANGE_SCALES = 4.0
_MIN_COUNT = 25
_SLACK = 0.05
_WINDOW_STRIDE = 64


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
        calibrated = self.calibration is not None
        if calibrated:
            _require("calibration", self.calibration, *_one_of(CALIBRATIONS))
        # a stated epsilon or sensitivity is checked, calibrated or not
        if calibrated or self.epsilon is not None:
            _require("epsilon", self.epsilon, *_POSITIVE)
        if calibrated or self.sensitivity is not None:
            _require("sensitivity", self.sensitivity, *_NONNEGATIVE)
        if calibrated and self.scale != self.sensitivity / self.epsilon:
            raise ValueError("scale must equal sensitivity / epsilon")

    def threshold(self, k: float = 1.0) -> float:
        """k standard deviations of one coordinate: k * sqrt(2) * scale."""
        _require("k", k, *_POSITIVE)
        return k * math.sqrt(2.0) * self.scale

    def tail(self, t):
        """P(|b| > t) = exp(-t / scale) of one coordinate b, elementwise for t >= 0."""
        _require("scale", self.scale, *_POSITIVE)  # no noise has no tail
        return np.exp(-np.asarray(t, dtype=float) / self.scale)


@dataclass(frozen=True, eq=False)
class Release:
    """One epsilon's release: the solve's report, its certificate and ``Noise``,
    and the noisy weights in the layout of ``report.weights``."""

    report: SolveReport
    cert: StabilityCert
    noise: Noise
    noisy_weights: np.ndarray


def laplace_sample(scale_b: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` independent Laplace(0, b) values by inverse CDF.

    Mean 0, variance 2 b^2. The uniform stream comes from the supplied
    generator, so draws are reproducible. The value is
    sign(u) * b * -log1p(-2 |u|) for u uniform in [-0.5, 0.5); u = 0 gives
    +0.0. The uniforms come from ``rng.random`` in blocks of at most
    ``_DRAW_BLOCK``, which together draw the stream of one
    ``rng.random(count)``; each block is transformed in place into its
    slice of the one ``count``-float output. The package draws it through
    :func:`perturb` alone.
    """
    _require("scale_b", scale_b, *_POSITIVE)
    _require("count", count, *_at_least(0))
    out = np.empty(count)
    for start in range(0, count, _DRAW_BLOCK):
        u = rng.random(min(_DRAW_BLOCK, count - start))
        u -= 0.5  # in [-0.5, 0.5)
        mag = np.abs(u, out=out[start:start + u.size])
        # guard the measure-zero u = -0.5 endpoint so log1p never sees -1
        np.minimum(mag, np.nextafter(0.5, 0), out=mag)
        mag *= -2.0
        np.log1p(mag, out=mag)
        mag *= scale_b
        np.copysign(mag, u, out=mag)
    return out


def perturb(W: np.ndarray, noise: Noise, rng: np.random.Generator) -> np.ndarray:
    """A fresh C-contiguous array of W plus one draw of ``noise`` on every entry.

    Draws ``W.size`` values in row-major order into the array it returns
    and adds W to them in place, so no second W-sized array is made (W may
    be a broadcast view); the sums are those of ``W + noise``. A zero
    scale draws nothing and returns an exact copy.
    """
    W = np.asarray(W, dtype=float)
    if noise.scale == 0:
        return W.copy()
    out = laplace_sample(noise.scale, W.size, rng).reshape(W.shape)
    out += W
    return out


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


def release(spec: ObjectiveSpec | Sequence[ObjectiveSpec], S: Dataset | _Stack, epsilons,
            noise: str | Noise, *, seed: int, stream: int = 0, tolerance=1e-8,
            max_iters=100_000) -> list:
    """Train ``spec`` on S once; release its weights, one ``Release`` per epsilon.

    ``spec`` is one ``ObjectiveSpec``, or a grid of them (a lambda grid, say),
    trained in one ``solve_erm`` call; a grid gives one list of Releases per
    spec, in grid order, each spec's the list its lone call gives, bit for
    bit. ``noise`` is a calibration name, calibrated per spec and epsilon,
    or one ``Noise`` for all. The epsilons (a non-empty grid, each finite
    and > 0), S's type (a ``Dataset`` or a ``_Stack``, as for the solvers),
    the kappa premise (no feature row above a spec's kappa), every
    certificate and every calibration are checked before the solve. Dataset
    r of S (a ``Dataset`` is dataset 0) draws noise over its (K, d) model
    rows from the stream keyed (seed, stream, lambda bits, epsilon bits, r).
    """
    specs = _grid_of(spec)
    epsilons = tuple(epsilons)
    _require("epsilons", epsilons, len, "a non-empty grid", tuple)
    for eps in epsilons:
        _require("epsilon", eps, *_POSITIVE)
    for s in specs:
        _check_kappa(s, S)
    certs = [spec_cert(s, S.n) for s in specs]
    noises = [[calibrate(cert, S.d, eps, noise) if isinstance(noise, str) else noise
               for eps in epsilons] for cert in certs]
    solved = solve_erm(specs, S, tolerance, max_iters)
    releases = []
    for j, (s, cert, nzs) in enumerate(zip(specs, certs, noises)):
        report = _spec_report(solved, s, j)
        W = np.atleast_3d(report.weights)  # a Dataset's (d,) weights as (1, d, 1)
        releases.append([Release(report, cert, nz, np.stack(
            [perturb(w.T, nz, derive_rng(seed, stream, float_key(s.lam), float_key(eps), r))
             for r, w in enumerate(W)]).swapaxes(1, 2).reshape(report.weights.shape))
            for eps, nz in zip(epsilons, nzs)])
    return releases[0] if isinstance(spec, ObjectiveSpec) else releases


def wilson_interval(successes: int, trials: int) -> tuple:
    """Wilson score interval, at z = 3, for a binomial proportion."""
    if trials <= 0:
        return (0.0, 1.0)
    p = successes / trials
    z, z2 = 3.0, 9.0
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def _count_blocks(total: int, draw, count):
    """The sum of ``count(draw(size))`` over blocks of at most ``_DRAW_BLOCK``
    values whose sizes sum to ``total``, each dropped before the next is drawn."""
    acc = 0
    for start in range(0, total, _DRAW_BLOCK):
        acc += count(draw(min(_DRAW_BLOCK, total - start)))
    return acc


def _release_of(release, name: str, rng: np.random.Generator, size: int) -> np.ndarray:
    """``release(rng, size)`` as floats, checked 1-D, ``size`` long and finite."""
    r = np.asarray(release(rng, size), dtype=float)
    if r.shape != (size,):
        raise ValueError(f"{name} must return a 1-D array of size={size} values, "
                         f"got shape {r.shape}")
    if not np.isfinite(r).all():
        raise ValueError(f"{name} must return finite values, got "
                         f"{r.size - np.count_nonzero(np.isfinite(r))} non-finite")
    return r


def dp_micro_check(release_S, release_S_neighbor, epsilon: float,
                   samples: int = 1_000_000, seed: int = 0) -> OracleReport:
    """Empirical test of the DP inequality on a 1-D release.

    ``release_S(rng, size)`` and ``release_S_neighbor(rng, size)`` sample
    the release on S and on its neighbour: each must return ``size``
    independent scalar releases, as a 1-D array of finite values; any
    other return raises ValueError. Each is called several times on one
    generator, with sizes up to a block of 16 384 values; when it draws
    its values in order from ``rng``, as ``perturb`` does, the joined
    blocks equal one ``samples``-sized call.
    Frequencies are compared over 20 equal bins that
    span 4 estimated noise scales either side of a centre. Both come from
    a pilot, ceil(samples / 64) values drawn from each sampler on streams
    the counted samples never use, joined: the centre is its median, and
    the scale its mean absolute deviation from the centre (the Laplace
    MLE), floored at 1e-12. At 1M samples the pilot holds 31 250 values,
    and its centre lies about 0.6% of a noise scale from the median of the
    two laws pooled, against bins 0.4 scales wide. Both pilots are drawn
    and checked first; then S's ``samples`` values, and after them
    S_neighbor's, are drawn block by block, each block checked, binned
    and dropped before the next is drawn, so one block (128 KiB) is alive
    at a time whatever the sample count. The check passes when
    every adequately-populated bin has a frequency ratio at most
    exp(epsilon) * (1 + 0.05), the slack. Bins with fewer than 25 samples
    on either side are reported as inconclusive, not failed.

    The report's bound is that threshold, its empirical value the largest
    bin ratio, and its trials the sample count per sampler. ``details``
    counts the bins checked and inconclusive, and ``confident_violations``
    the bins whose Wilson-interval ratio lower bound already exceeds
    exp(epsilon).
    """
    # an infinite epsilon gives an infinite threshold, which any release passes
    _require("epsilon", epsilon, *_POSITIVE)
    _require("samples", samples, *_COUNT)
    size = -(-samples // _WINDOW_STRIDE)
    sides = (("release_S", release_S), ("release_S_neighbor", release_S_neighbor))
    pilots = np.concatenate([_release_of(fn, name, derive_rng(seed, key), size)
                             for (name, fn), key in zip(sides, (103, 204))])
    # two equal-length pilots, so the median is the mean of the middle pair;
    # np.median's NaN check would import numpy.ma mid-pass
    h = pilots.size // 2
    p = np.partition(pilots, (h - 1, h))
    center = float((p[h - 1] + p[h]) / 2)
    scale_hat = max(float(np.mean(np.abs(pilots - center))), 1e-12)  # Laplace MLE scale
    edges = np.linspace(center - _RANGE_SCALES * scale_hat,
                        center + _RANGE_SCALES * scale_hat, _BINS + 1)
    count_a, count_b = (
        _count_blocks(samples, lambda n: _release_of(fn, name, rng, n),
                      lambda r: np.histogram(r, bins=edges)[0])
        for (name, fn), rng in zip(sides, (derive_rng(seed, 101), derive_rng(seed, 202))))

    limit = math.exp(epsilon)
    threshold = limit * (1.0 + _SLACK)
    max_ratio = 0.0
    checked = inconclusive = confident = 0
    table = []
    for i in range(_BINS):
        ca, cb = int(count_a[i]), int(count_b[i])
        if min(ca, cb) < _MIN_COUNT:
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
        details={"epsilon": epsilon, "slack": _SLACK, "bins_checked": checked,
                 "bins_inconclusive": inconclusive,
                 "confident_violations": confident, "bin_table": table},
    )
