"""Stability-calibrated output perturbation for private empirical risk minimization.

Train a (strongly convex) empirical risk minimizer as usual, bound how far
its weights can move when one training record changes using a uniform
stability constant, and release the weights with Laplace noise calibrated
to that bound. The package covers the closed-form stability and
sensitivity calculators, a deterministic elastic-net/L2 solver plus a
stability-knob SGD engine, the release mechanisms, threshold-based private
feature selection, dataset plumbing, a sweep CLI, and brute-force oracles
that empirically stress every bound.
"""

from .model import Dataset, ObjectiveSpec
from .optimizer import SgdConfig, SolveReport, solve_erm, sgd_run
from .privacy import Noise, PrivateRelease, calibrate, release
from .stability import StabilityCert, spec_cert

__all__ = [
    "Dataset",
    "ObjectiveSpec",
    "SgdConfig",
    "SolveReport",
    "solve_erm",
    "sgd_run",
    "Noise",
    "PrivateRelease",
    "calibrate",
    "release",
    "StabilityCert",
    "spec_cert",
]

__version__ = "0.1.0"
