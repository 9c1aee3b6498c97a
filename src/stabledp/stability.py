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
flavors: the direct replace-one bound 2 L / (n lambda_sc), for either
penalty (``sensitivity_l2_direct``), and the strong-convexity conversion
sqrt(2 beta / lambda_sc) (``sensitivity_via_strong_convexity``) which is
the one output perturbation calibrates against. The ``lambda_sc`` paired
with a beta is always the strong-convexity constant of the full objective,
not the raw regularization weight. This module states how far weights can
move; turning that into a Laplace scale is ``privacy.calibrate``'s job.

Table 1's relative scalings for optimizer knobs (steps, step size, batch
size, dropout rate, clipping bound) are big-O rows without constants, so
``stability_knob_scaling`` gives a multiplier, never a certificate; every
certificate comes from the two formulas above or ``user_cert``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    _COUNT,
    _NONNEGATIVE,
    _POSITIVE,
    _UNIT,
    ObjectiveSpec,
    _one_of,
    _require,
    _require_each,
    strong_convexity_constant,
)

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

PROVENANCES = ("l2_erm", "elastic_net", "user_supplied")
SCALING_KNOBS = ("steps", "step_size", "batch", "dropout", "clip")


@dataclass(frozen=True)
class StabilityCert:
    """A uniform-stability constant with provenance.

    ``lambda_sc`` is the strong-convexity constant the beta pairs with.
    """

    beta: float
    lambda_sc: float
    provenance: str

    def __post_init__(self):
        _require("beta", self.beta, *_NONNEGATIVE)
        _require("lambda_sc", self.lambda_sc, *_POSITIVE)
        _require("provenance", self.provenance, *_one_of(PROVENANCES))


def user_cert(beta: float, lambda_sc: float) -> StabilityCert:
    """Wrap an externally known stability constant."""
    return StabilityCert(beta=beta, lambda_sc=lambda_sc, provenance="user_supplied")


def beta_l2_erm(L: float, kappa: float, n: int, lam: float) -> StabilityCert:
    """beta = 2 L^2 kappa^2 / (n lam) for L2-penalized ERM.

    ``lam`` here is the strong-convexity constant of the penalized
    objective (equal to the regularization weight under the (lam/2)||w||^2
    convention), and the certificate pairs with it as its ``lambda_sc``.
    """
    _require_each(_POSITIVE, L=L, kappa=kappa, lam=lam)
    _require("n", n, *_COUNT)
    beta = 2.0 * L * L * kappa * kappa / (n * lam)
    return StabilityCert(beta=beta, lambda_sc=lam, provenance="l2_erm")


def beta_elastic_net(L: float, kappa: float, n: int, lam: float,
                     gamma: float) -> StabilityCert:
    """beta = 2 L^2 kappa / (n lam gamma) for elastic-net penalized ERM.

    The certificate pairs with the strong-convexity constant 2 lam gamma,
    the second derivative of the lam gamma ||w||^2 term.
    """
    _require_each(_POSITIVE, L=L, kappa=kappa, lam=lam)
    _require("n", n, *_COUNT)
    _require("gamma", gamma, *_UNIT)
    beta = 2.0 * L * L * kappa / (n * lam * gamma)
    return StabilityCert(beta=beta, lambda_sc=2.0 * lam * gamma, provenance="elastic_net")


def spec_cert(spec: ObjectiveSpec, n: int) -> StabilityCert:
    """Closed-form stability certificate matching an objective spec.

    L2 mode passes the strong-convexity constant (lam, under the
    (lam/2)||w||^2 penalty) as the formula's lambda; elastic mode uses the
    raw (lam, gamma) pair its formula is stated in.
    """
    L = spec.L
    if spec.penalty == "elastic":
        return beta_elastic_net(L, spec.kappa, n, spec.lam, spec.gamma)
    return beta_l2_erm(L, spec.kappa, n, strong_convexity_constant(spec))


def sensitivity_l2_direct(L: float, n: int, lambda_sc: float) -> float:
    """Replace-one weight sensitivity: ||w_S - w_S'|| <= 2 L / (n lambda_sc).

    Bousquet & Elisseeff (JMLR 2002); Chaudhuri, Monteleoni & Sarwate
    (JMLR 2011, Cor. 8). Let F_S = (1/n) sum_i loss(w; z_i) + penalty(w)
    be lambda_sc-strongly convex, with every loss(.; z) L-Lipschitz in w
    and the penalty convex (L2 and elastic net alike). S' swaps z_i for z'.

    1. F_S' = F_S + g / n with g(w) = loss(w; z') - loss(w; z_i), and g
       is 2L-Lipschitz.
    2. With D = ||w_S - w_S'||, strong convexity at each minimiser gives
       F_S(w_S') - F_S(w_S) >= lambda_sc D^2 / 2, and the same for F_S'.
    3. Adding the two: lambda_sc D^2 <= (g(w_S) - g(w_S')) / n <= 2 L D / n.
    4. So D <= 2 L / (n lambda_sc).
    """
    _require_each(_POSITIVE, L=L, lambda_sc=lambda_sc)
    _require("n", n, *_COUNT)
    return 2.0 * L / (n * lambda_sc)


def sensitivity_via_strong_convexity(cert: StabilityCert) -> float:
    """Strong-convexity conversion: ||w_S - w_S'|| <= sqrt(2 beta / lambda_sc)."""
    return math.sqrt(2.0 * cert.beta / cert.lambda_sc)


def privacy_enhancement(epsilon: float, beta1: float, beta2: float) -> float:
    """Improved privacy level sqrt(beta2/beta1) * epsilon under unchanged noise.

    Valid only when the stability guarantee actually improved (beta2 <= beta1).
    """
    _require_each(_POSITIVE, epsilon=epsilon, beta1=beta1, beta2=beta2)
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
    _require_each(_POSITIVE, L=L, epsilon=epsilon)
    _require("d", d, *_COUNT)
    return (L * d / epsilon) * sensitivity_via_strong_convexity(cert)


def stability_knob_scaling(knob: str, old_value: float, new_value: float,
                           lipschitz_L: float | None = None) -> float:
    """Table 1's multiplier on beta when one optimizer knob moves.

    A big-O ratio without constants: steps, step_size, and dropout scale
    beta by new/old; batch by old/new; clip by min(G_new, L) / min(G_old, L).
    """
    _require("knob", knob, *_one_of(SCALING_KNOBS))
    _require_each(_POSITIVE, old_value=old_value, new_value=new_value)
    if knob in ("steps", "step_size", "dropout"):
        return new_value / old_value
    if knob == "batch":
        return old_value / new_value
    _require("lipschitz_L", lipschitz_L, *_POSITIVE)  # clip
    return min(new_value, lipschitz_L) / min(old_value, lipschitz_L)
