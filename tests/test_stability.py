import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledp.model import ObjectiveSpec
from stabledp.privacy import calibrate
from stabledp.stability import (
    StabilityCert,
    privacy_enhancement,
    privacy_error_bound,
    sensitivity_l2_direct,
    sensitivity_via_strong_convexity,
    spec_cert,
    user_cert,
)


def l2(lam=0.1, **kw):
    return ObjectiveSpec("logistic", lam, penalty="l2", **kw)


def elastic(lam=0.1, gamma=0.85, **kw):
    return ObjectiveSpec("logistic", lam, penalty="elastic", gamma=gamma, **kw)


class TestBetaL2:
    def test_hand_value(self):
        # L * 2 L / (n lambda_sc) = 2 * 1 * 1 / (100 * 0.1) = 0.2
        assert spec_cert(l2(), 100).beta == pytest.approx(0.2)

    def test_doubling_n_halves(self):
        assert spec_cert(l2(), 200).beta == pytest.approx(0.1)
        assert spec_cert(l2(), np.int64(200)).beta == pytest.approx(0.1)

    def test_kappa_counted_once(self):
        # L = kappa = 0.5 for the logistic loss: 2 * 0.25 / (100 * 0.1) = 0.05,
        # where 2 L^2 kappa^2 / (n lam) counted kappa twice and gave 0.0125
        assert spec_cert(l2(kappa=0.5), 100).beta == pytest.approx(0.05, rel=1e-15)
        # the squared loss's declared L alone sets beta: 2 * 4 / (100 * 0.1)
        squared = ObjectiveSpec("squared", 0.1, kappa=0.5, lipschitz_L=2.0)
        assert spec_cert(squared, 100).beta == pytest.approx(0.8, rel=1e-15)

    def test_is_lipschitz_times_the_direct_bound(self):
        for spec in (l2(kappa=0.3, lam=0.7), l2(lipschitz_L=2.5, lam=0.02)):
            assert spec_cert(spec, 37).beta == spec.L * sensitivity_l2_direct(spec.L, 37, spec.lam)

    def test_default_lambda_sc(self):
        assert spec_cert(l2(), 100).lambda_sc == 0.1

    @pytest.mark.parametrize("kwargs", [
        dict(L=0, kappa=1, n=10, lam=0.1),
        dict(L=1, kappa=1, n=10, lam=0.0),
        dict(L=1, kappa=1, n=10, lam=-0.5),
        dict(L=1, kappa=0, n=10, lam=0.1),
        dict(L=1, kappa=1, n=10, lam=math.nan),
        dict(L=math.nan, kappa=1, n=10, lam=0.1),
        dict(L=1, kappa=math.inf, n=10, lam=0.1),
        dict(L=1, kappa=1, n=True, lam=0.1),
        dict(L=1, kappa=1, n=2.5, lam=0.1),
    ])
    def test_nonpositive_rejected(self, kwargs):
        # the spec checks L, kappa and lam; spec_cert checks n and strong convexity
        with pytest.raises(ValueError):
            spec_cert(ObjectiveSpec("squared", kwargs["lam"], kappa=kwargs["kappa"],
                                    lipschitz_L=kwargs["L"]), kwargs["n"])

    def test_squared_loss_needs_lipschitz(self):
        with pytest.raises(ValueError, match="lipschitz_L"):
            spec_cert(ObjectiveSpec("squared", 0.1), 10)


class TestBetaElasticNet:
    def test_hand_value(self):
        # 2 / (100 * 0.1 * 0.85) = 0.23529411764705882
        cert = spec_cert(elastic(), 100)
        assert cert.beta == pytest.approx(0.23529411764705882, rel=1e-12)
        # (2 lam) gamma and 2 (lam gamma) are the same float: doubling is exact
        assert cert.lambda_sc == 2.0 * 0.1 * 0.85

    def test_recipe_counts_kappa_as_written(self):
        # 2 L^2 kappa / (n lam gamma) with L = kappa = 0.5
        assert spec_cert(elastic(kappa=0.5), 100).beta == pytest.approx(
            2 * 0.25 * 0.5 / (100 * 0.1 * 0.85), rel=1e-15)

    def test_gamma_one_reduces_to_l2_form(self):
        assert spec_cert(elastic(gamma=1.0), 100).beta == pytest.approx(2.0 / (100 * 0.1))

    def test_monotone_decreasing_in_gamma(self):
        betas = [spec_cert(elastic(gamma=g), 100).beta for g in (0.2, 0.5, 0.85, 1.0)]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_gamma_above_one_rejected(self):
        with pytest.raises(ValueError):
            spec_cert(elastic(gamma=1.2), 100)


class TestSensitivityThm1:
    def test_hand_value(self):
        # 2 L / (n lambda_sc)
        assert sensitivity_l2_direct(1, 100, 0.1) == pytest.approx(0.2)

    def test_scale_invariance(self):
        a = sensitivity_l2_direct(1, 100, 0.1)
        b = sensitivity_l2_direct(2, 200, 0.1)
        assert a == pytest.approx(b)


class TestSensitivityThm3:
    def test_zero_beta(self):
        assert sensitivity_via_strong_convexity(user_cert(0.0, 1.0)) == 0.0

    def test_hand_value(self):
        assert sensitivity_via_strong_convexity(user_cert(0.02, 1.0)) == pytest.approx(0.2)

    def test_monotone_in_beta_and_lambda(self):
        grid = [0.01, 0.1, 1.0]
        for lam_sc in grid:
            vals = [sensitivity_via_strong_convexity(user_cert(b, lam_sc)) for b in grid]
            assert vals == sorted(vals)
        for b in grid:
            vals = [sensitivity_via_strong_convexity(user_cert(b, lam_sc)) for lam_sc in grid]
            assert vals == sorted(vals, reverse=True)


@given(st.floats(0.0, 100.0), st.floats(1e-3, 100.0), st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_l1_is_sqrt_d_times_l2(beta, lambda_sc, d):
    # the derived calibration releases with the L1 bound sqrt(d) times the L2 bound
    cert = user_cert(beta, lambda_sc)
    sens = calibrate(cert, d, 1.0, "derived").sensitivity
    assert sens == pytest.approx(math.sqrt(d) * sensitivity_via_strong_convexity(cert),
                                 rel=1e-12, abs=1e-300)


class TestPrivacyEnhancement:
    def test_identity(self):
        assert privacy_enhancement(1.3, 0.4, 0.4) == pytest.approx(1.3)

    def test_quarter_beta_halves_epsilon(self):
        assert privacy_enhancement(1.0, 0.4, 0.1) == pytest.approx(0.5)

    def test_not_an_improvement_rejected(self):
        with pytest.raises(ValueError, match="not an improvement"):
            privacy_enhancement(1.0, 0.1, 0.4)

    def test_composition(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            eps = float(rng.uniform(0.1, 5))
            b1 = float(rng.uniform(0.01, 10))
            b2 = b1 * float(rng.uniform(0.05, 1.0))
            b3 = b2 * float(rng.uniform(0.05, 1.0))
            two_step = privacy_enhancement(privacy_enhancement(eps, b1, b2), b2, b3)
            one_step = privacy_enhancement(eps, b1, b3)
            assert two_step == pytest.approx(one_step, rel=1e-12)

    def test_noise_scale_identity(self):
        # Laplace scale sqrt(2 b1)/(eps sqrt(lam)) equals sqrt(2 b2)/(eps' sqrt(lam))
        # for eps' = sqrt(b2/b1) eps
        rng = np.random.default_rng(1)
        for _ in range(100):
            lam = float(rng.uniform(0.01, 10))
            eps = float(rng.uniform(0.1, 10))
            b1 = float(rng.uniform(1e-3, 10))
            b2 = b1 * float(rng.uniform(0.01, 1.0))
            eps2 = privacy_enhancement(eps, b1, b2)
            s1 = math.sqrt(2 * b1) / (eps * math.sqrt(lam))
            s2 = math.sqrt(2 * b2) / (eps2 * math.sqrt(lam))
            assert abs(s1 - s2) <= 1e-12 * max(1.0, s1)


class TestPrivacyErrorBound:
    def test_hand_value(self):
        assert privacy_error_bound(1, 2, 1.0, user_cert(0.5, 1.0)) == pytest.approx(2.0)

    def test_halves_when_epsilon_doubles(self):
        cert = user_cert(0.5, 1.0)
        assert privacy_error_bound(1, 2, 2.0, cert) == pytest.approx(
            privacy_error_bound(1, 2, 1.0, cert) / 2
        )


class TestCertValidation:
    def test_negative_beta_rejected(self):
        for beta in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                StabilityCert(beta=beta, lambda_sc=1.0, provenance="user_supplied")

    def test_nonpositive_lambda_rejected(self):
        for lambda_sc in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                StabilityCert(beta=0.1, lambda_sc=lambda_sc, provenance="user_supplied")

    def test_unknown_provenance_rejected(self):
        # a Table 1 multiplier has no constants, so no certificate is knob-scaled
        for provenance in ("guessed", "knob_scaled"):
            with pytest.raises(ValueError):
                StabilityCert(beta=0.1, lambda_sc=1.0, provenance=provenance)
