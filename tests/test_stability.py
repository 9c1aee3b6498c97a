import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabledp.privacy import calibrate
from stabledp.stability import (
    StabilityCert,
    beta_elastic_net,
    beta_l2_erm,
    privacy_enhancement,
    privacy_error_bound,
    sensitivity_l2_direct,
    sensitivity_via_strong_convexity,
    stability_knob_scaling,
    user_cert,
)


class TestBetaL2:
    def test_hand_value(self):
        # 2 * 1 * 1 / (100 * 0.1) = 0.2
        assert beta_l2_erm(1, 1, 100, 0.1).beta == pytest.approx(0.2)

    def test_doubling_n_halves(self):
        assert beta_l2_erm(1, 1, 200, 0.1).beta == pytest.approx(0.1)
        assert beta_l2_erm(1, 1, np.int64(200), 0.1).beta == pytest.approx(0.1)

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
        with pytest.raises(ValueError):
            beta_l2_erm(**kwargs)

    def test_default_lambda_sc(self):
        assert beta_l2_erm(1, 1, 100, 0.1).lambda_sc == pytest.approx(0.1)


class TestBetaElasticNet:
    def test_hand_value(self):
        # 2 / (100 * 0.1 * 0.85) = 0.23529411764705882
        cert = beta_elastic_net(1, 1, 100, 0.1, 0.85)
        assert cert.beta == pytest.approx(0.23529411764705882, rel=1e-12)
        assert cert.lambda_sc == pytest.approx(0.17)

    def test_gamma_one_reduces_to_l2_form(self):
        assert beta_elastic_net(1, 1, 100, 0.1, 1.0).beta == pytest.approx(
            2.0 / (100 * 0.1)
        )

    def test_monotone_decreasing_in_gamma(self):
        betas = [beta_elastic_net(1, 1, 100, 0.1, g).beta for g in (0.2, 0.5, 0.85, 1.0)]
        assert all(a > b for a, b in zip(betas, betas[1:]))

    def test_gamma_above_one_rejected(self):
        with pytest.raises(ValueError):
            beta_elastic_net(1, 1, 100, 0.1, 1.2)


class TestSensitivityThm1:
    def test_hand_value(self):
        assert sensitivity_l2_direct(1, 1, 100, 0.1) == pytest.approx(0.4)

    def test_scale_invariance(self):
        a = sensitivity_l2_direct(1, 1, 100, 0.1)
        b = sensitivity_l2_direct(2, 1, 200, 0.1)
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


class TestTable1Scaling:
    def base(self):
        return user_cert(0.4, 0.2)

    def test_dropout_halves(self):
        out = stability_knob_scaling(self.base(), "dropout", 1.0, 0.5)
        assert out.beta == pytest.approx(0.2)
        assert out.provenance == "knob_scaled"
        assert out.scaling_factors == (("dropout", 0.5),)

    def test_batch_doubling_halves(self):
        assert stability_knob_scaling(self.base(), "batch", 32, 64).beta == pytest.approx(0.2)

    def test_steps_and_step_size_linear(self):
        assert stability_knob_scaling(self.base(), "steps", 100, 300).beta == pytest.approx(1.2)
        assert stability_knob_scaling(self.base(), "step_size", 0.1, 0.05).beta == pytest.approx(0.2)

    def test_identity(self):
        assert stability_knob_scaling(self.base(), "steps", 7, 7).beta == pytest.approx(0.4)

    def test_clip_uses_min_with_lipschitz(self):
        # below L: linear in G; above L: saturates
        out = stability_knob_scaling(self.base(), "clip", 0.5, 0.25, lipschitz_L=1.0)
        assert out.beta == pytest.approx(0.2)
        out = stability_knob_scaling(self.base(), "clip", 2.0, 3.0, lipschitz_L=1.0)
        assert out.beta == pytest.approx(0.4)

    def test_clip_requires_lipschitz(self):
        for L in (None, 0.0, math.nan):
            with pytest.raises(ValueError, match="lipschitz"):
                stability_knob_scaling(self.base(), "clip", 1.0, 0.5, lipschitz_L=L)

    def test_unsupported_knob_lists_supported(self):
        with pytest.raises(ValueError) as err:
            stability_knob_scaling(self.base(), "momentum", 1, 2)
        for knob in ("steps", "step_size", "batch", "dropout", "clip"):
            assert knob in str(err.value)

    def test_factors_accumulate(self):
        out = stability_knob_scaling(self.base(), "dropout", 1.0, 0.5)
        out = stability_knob_scaling(out, "batch", 16, 32)
        assert out.scaling_factors == (("dropout", 0.5), ("batch", 0.5))
        assert out.beta == pytest.approx(0.1)


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
        with pytest.raises(ValueError):
            StabilityCert(beta=0.1, lambda_sc=1.0, provenance="guessed")
