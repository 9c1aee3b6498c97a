"""Closed-form uniform-stability and output-sensitivity calculators.

One constructor, ``spec_cert``, certifies every ``ObjectiveSpec``. It reads
lambda_sc once, from ``model.strong_convexity_constant``, and states beta
by the spec's penalty:

* ``l2``:      beta = L * 2 L / (n lambda_sc) = 2 L^2 / (n lambda_sc), the
               loss's Lipschitz constant times the direct replace-one bound.
* ``elastic``: beta = 2 L^2 kappa / (n lam gamma), the recipe of Chaudhuri,
               Monteleoni & Sarwate (2011) as written.

L is the loss's Lipschitz constant in w, for the logistic loss already
kappa, so the L2 constant counts kappa once: for every z,
|loss(w_S; z) - loss(w_S'; z)| <= L ||w_S - w_S'|| <= 2 L^2 / (n lambda_sc).
The elastic recipe counts kappa again, so below kappa = 1/2 it is under
that sound value and a correct solver can exceed it. It stays as written
because ``verbatim`` calibrates with it and the sweep's ``beta`` column
reports it: moving it moves every elastic release.

Sensitivity bounds on the trained weights are plain floats, the L2 distance
||w_S - w_S'|| can reach over neighboring datasets. They come in two
flavors: the direct replace-one bound 2 L / (n lambda_sc), for either
penalty (``sensitivity_l2_direct``), and the strong-convexity conversion
sqrt(2 beta / lambda_sc) (``sensitivity_via_strong_convexity``) which is
the one output perturbation calibrates against. The ``lambda_sc`` paired
with a beta is always the strong-convexity constant of the full objective,
not the raw regularization weight. This module states how far weights can
move; turning that into a Laplace scale is ``privacy.calibrate``'s job.

Table 1's knobs (steps, step size, batch size, dropout rate, clipping bound)
scale beta by big-O rows without constants, so no certificate comes from them:
every certificate comes from ``spec_cert`` or ``user_cert`` until a planned
``sgd_cert`` states an SGD certificate with its constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    _COUNT,
    _NONNEGATIVE,
    _POSITIVE,
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
    "sensitivity_l2_direct",
    "sensitivity_via_strong_convexity",
    "privacy_enhancement",
    "privacy_error_bound",
]

PROVENANCES = ("l2_erm", "elastic_net", "user_supplied")


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


def spec_cert(spec: ObjectiveSpec, n: int) -> StabilityCert:
    """The closed-form stability certificate of ``spec`` on n records.

    The spec has checked its constants, so only ``n`` is checked here.
    See the module docstring for the two formulas.
    """
    _require("n", n, *_COUNT)
    lambda_sc = strong_convexity_constant(spec)
    L = spec.L
    if spec.penalty == "elastic":
        beta = 2.0 * L * L * spec.kappa / (n * spec.lam * spec.gamma)
        return StabilityCert(beta=beta, lambda_sc=lambda_sc, provenance="elastic_net")
    return StabilityCert(beta=L * sensitivity_l2_direct(L, n, lambda_sc), lambda_sc=lambda_sc,
                         provenance="l2_erm")


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
