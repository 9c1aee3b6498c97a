"""Closed-form uniform-stability and output-sensitivity calculators.

Two absolute stability constants are implemented:

* ``beta_l2_erm``:      beta = 2 L^2 kappa^2 / (n lam)   (L2-penalized ERM)
* ``beta_elastic_net``: beta = 2 L^2 kappa   / (n lam gamma)

Note the asymmetry: the elastic-net constant scales with kappa, the L2
constant with kappa^2. Both are implemented exactly as stated by their
sources; the asymmetry is surfaced here rather than silently normalized.

``spec_cert`` picks the constant that matches an ``ObjectiveSpec``.

Sensitivity bounds on the trained weights are plain floats, the L2 distance
||w_S - w_S'|| can reach over neighboring datasets. They come in two
flavors: a direct bound for L2-penalized ERM (``sensitivity_l2_direct``),
and the strong-convexity conversion sqrt(2 beta / lambda_sc)
(``sensitivity_via_strong_convexity``) which is the one output perturbation
calibrates against. The ``lambda_sc`` paired with a beta is always the
strong-convexity constant of the full objective, not the raw regularization
weight. This module states how far weights can move;
turning that into a Laplace scale is ``privacy.calibrate``'s job.

Relative scalings for optimizer knobs (steps, step size, batch size,
dropout rate, clipping bound) are big-O rows without constants, so
``stability_knob_scaling`` only ever multiplies an existing certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ObjectiveSpec, strong_convexity_constant

__all__ = [
    "StabilityCert",
    "user_cert",
    "spec_cert",
    "beta_l2_erm",
    "beta_elastic_net",
    "sensitivity_l2_direct",
    "sensitivity_via_strong_convexity",
    "privacy_enhancement",
    "privacy_error_bound",
    "stability_knob_scaling",
    "SCALING_KNOBS",
]

PROVENANCES = ("l2_erm", "elastic_net", "user_supplied", "knob_scaled")
SCALING_KNOBS = ("steps", "step_size", "batch", "dropout", "clip")


@dataclass(frozen=True)
class StabilityCert:
    """A uniform-stability constant with provenance.

    ``lambda_sc`` is the strong-convexity constant the beta pairs with;
    ``scaling_factors`` records every knob multiplier applied on top of the
    base formula.
    """

    beta: float
    lambda_sc: float
    provenance: str
    scaling_factors: tuple = ()

    def __post_init__(self):
        # every comparison with NaN is false, so each guard tests the valid range
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not 0 < self.lambda_sc < math.inf:
            raise ValueError(f"lambda_sc must be finite and > 0, got {self.lambda_sc}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}")


def _require_positive(**kwargs):
    for name, value in kwargs.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def user_cert(beta: float, lambda_sc: float) -> StabilityCert:
    """Wrap an externally known stability constant."""
    return StabilityCert(beta=beta, lambda_sc=lambda_sc, provenance="user_supplied")


def beta_l2_erm(L: float, kappa: float, n: int, lam: float,
                lambda_sc: float | None = None) -> StabilityCert:
    """beta = 2 L^2 kappa^2 / (n lam) for L2-penalized ERM.

    ``lam`` here is the strong-convexity constant of the penalized
    objective (equal to the regularization weight under the (lam/2)||w||^2
    convention); ``lambda_sc`` defaults to it.
    """
    _require_positive(L=L, kappa=kappa, n=n, lam=lam)
    beta = 2.0 * L * L * kappa * kappa / (n * lam)
    return StabilityCert(beta=beta, lambda_sc=lam if lambda_sc is None else lambda_sc,
                         provenance="l2_erm")


def beta_elastic_net(L: float, kappa: float, n: int, lam: float, gamma: float,
                     lambda_sc: float | None = None) -> StabilityCert:
    """beta = 2 L^2 kappa / (n lam gamma) for elastic-net penalized ERM.

    The paired strong-convexity constant defaults to 2 lam gamma, the
    second derivative of the lam gamma ||w||^2 term.
    """
    _require_positive(L=L, kappa=kappa, n=n, lam=lam, gamma=gamma)
    if gamma > 1:
        raise ValueError(f"gamma must be <= 1, got {gamma}")
    beta = 2.0 * L * L * kappa / (n * lam * gamma)
    return StabilityCert(beta=beta,
                         lambda_sc=2.0 * lam * gamma if lambda_sc is None else lambda_sc,
                         provenance="elastic_net")


def spec_cert(spec: ObjectiveSpec, n: int) -> StabilityCert:
    """Closed-form stability certificate matching an objective spec.

    L2 mode uses the strong-convexity constant as the formula's lambda so
    the certificate is convention-independent; elastic mode uses the raw
    (lam, gamma) pair its formula is stated in.
    """
    L = spec.L
    if spec.penalty == "elastic":
        return beta_elastic_net(L, spec.kappa, n, spec.lam, spec.gamma)
    return beta_l2_erm(L, spec.kappa, n, strong_convexity_constant(spec))


def sensitivity_l2_direct(L: float, kappa: float, n: int, lam: float) -> float:
    """Direct L2-ERM weight sensitivity: 4 L kappa / (n lam)."""
    _require_positive(L=L, kappa=kappa, n=n, lam=lam)
    return 4.0 * L * kappa / (n * lam)


def sensitivity_via_strong_convexity(cert: StabilityCert) -> float:
    """Strong-convexity conversion: ||w_S - w_S'|| <= sqrt(2 beta / lambda_sc)."""
    return math.sqrt(2.0 * cert.beta / cert.lambda_sc)


def privacy_enhancement(epsilon: float, beta1: float, beta2: float) -> float:
    """Improved privacy level sqrt(beta2/beta1) * epsilon under unchanged noise.

    Valid only when the stability guarantee actually improved (beta2 <= beta1).
    """
    _require_positive(epsilon=epsilon, beta1=beta1, beta2=beta2)
    if beta2 > beta1:
        raise ValueError(
            f"beta2={beta2} > beta1={beta1} is not an improvement; no privacy gain"
        )
    return math.sqrt(beta2 / beta1) * epsilon


def privacy_error_bound(L: float, d: int, epsilon: float, cert: StabilityCert) -> float:
    """Upper bound on the expected excess empirical loss due to output noise.

    Bound: (L d / epsilon) * sqrt(2 beta / lambda_sc), for per-coordinate
    Laplace noise at scale sqrt(2 beta / lambda_sc) / epsilon.
    """
    _require_positive(L=L, d=d, epsilon=epsilon)
    return (L * d / epsilon) * math.sqrt(2.0 * cert.beta / cert.lambda_sc)


def stability_knob_scaling(base_cert: StabilityCert, knob: str, old_value: float, new_value: float,
                   lipschitz_L: float | None = None) -> StabilityCert:
    """Rescale a stability certificate when one optimizer knob moves.

    Relative multipliers only (the underlying scalings are big-O without
    constants): steps, step_size, and dropout scale beta by new/old;
    batch by old/new; clip by min(G_new, L) / min(G_old, L).
    """
    if knob not in SCALING_KNOBS:
        raise ValueError(f"unsupported knob {knob!r}; supported: {SCALING_KNOBS}")
    _require_positive(old_value=old_value, new_value=new_value)
    if knob in ("steps", "step_size", "dropout"):
        mult = new_value / old_value
    elif knob == "batch":
        mult = old_value / new_value
    else:  # clip
        if lipschitz_L is None or not 0 < lipschitz_L < math.inf:
            raise ValueError(
                f"clip scaling needs a finite, positive lipschitz_L, got {lipschitz_L}")
        mult = min(new_value, lipschitz_L) / min(old_value, lipschitz_L)
    return StabilityCert(
        beta=base_cert.beta * mult,
        lambda_sc=base_cert.lambda_sc,
        provenance="knob_scaled",
        scaling_factors=base_cert.scaling_factors + ((knob, mult),),
    )
