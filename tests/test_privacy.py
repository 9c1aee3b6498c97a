import functools
import math

import numpy as np
import pytest

from stabledp import privacy as privacy_mod
from stabledp.data_io import synth_classification
from stabledp.model import Dataset, ObjectiveSpec
from stabledp.optimizer import ConvergenceError, solve_erm
from stabledp.privacy import (
    PrivateRelease,
    calibrate,
    dp_micro_check,
    laplace_sample,
    perturb,
    release,
    wilson_interval,
)
from stabledp.rng import derive_rng
from stabledp.stability import (
    beta_elastic_net,
    beta_l2_erm,
    spec_cert,
    stability_knob_scaling,
    user_cert,
)


class TestLaplaceSample:
    def test_moments(self):
        r = laplace_sample(1.0, 200_000, derive_rng(0))
        assert abs(r.mean()) < 0.01
        assert r.var() == pytest.approx(2.0, rel=0.03)

    def test_cdf_quantiles(self):
        r = laplace_sample(1.0, 200_000, derive_rng(1))
        for t in (0.5, 1.0, 2.0):
            assert np.mean(np.abs(r) <= t) == pytest.approx(1 - math.exp(-t), abs=0.005)

    def test_scale_parameter(self):
        r = laplace_sample(0.4, 100_000, derive_rng(2))
        assert r.var() == pytest.approx(2 * 0.4**2, rel=0.05)

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(
            laplace_sample(1.0, 100, derive_rng(3)), laplace_sample(1.0, 100, derive_rng(3))
        )

    def test_nonpositive_scale_rejected(self):
        for b in (0.0, -1.0, math.nan, math.inf, True):
            with pytest.raises(ValueError):
                laplace_sample(b, 10, derive_rng(0))


class TestPrivateRelease:
    def test_scale_invariant_enforced(self):
        with pytest.raises(ValueError, match="noise_scale"):
            PrivateRelease(np.zeros(2), epsilon=1.0, sensitivity_used=0.4, noise_scale=0.3,
                           calibration="derived")

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            PrivateRelease(np.zeros(2), epsilon=0.0, sensitivity_used=0.0, noise_scale=0.0,
                           calibration="derived")

    def test_unknown_calibration_rejected(self):
        with pytest.raises(ValueError, match="calibration"):
            PrivateRelease(np.zeros(2), epsilon=1.0, sensitivity_used=0.4, noise_scale=0.4,
                           calibration="l1")


def elastic_fixture():
    S, _ = synth_classification(100, 3, classes=2, sparsity=3, noise=0.5, seed=2)
    return S


def elastic_spec(lam=0.1, gamma=0.85, eta=0.15, **kw):
    return ObjectiveSpec("logistic", lam, penalty="elastic", gamma=gamma, eta=eta, **kw)


class TestCalibrate:
    def test_verbatim_is_the_classical_recipe_bit_for_bit(self):
        for lam in (1e-3, 0.03, 0.2, 1.0):
            for gamma in (0.1, 0.85, 1.0):
                for n in (37, 1600, 10_000):
                    cert = beta_elastic_net(1.0, 1.0, n, lam, gamma)
                    sens, _ = calibrate(cert, 32, 1.0, "verbatim")
                    assert sens == math.sqrt(2.0 * cert.beta / (lam * gamma))

    def test_bad_inputs_rejected(self):
        cert = beta_elastic_net(1, 1, 100, 0.1, 0.85)
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                calibrate(cert, 4, eps, "derived")
        for d in (0, 2.5, True):
            with pytest.raises(ValueError, match="d must be"):
                calibrate(cert, d, 1.0, "derived")
        with pytest.raises(ValueError, match="calibration"):
            calibrate(cert, 4, 1.0, "l1")


class TestRelease:
    @pytest.mark.parametrize("calibration", ["verbatim", "derived"])
    def test_is_solve_then_certify_then_calibrate_then_perturb(self, calibration):
        S, spec = elastic_fixture(), elastic_spec()
        rel = release(spec, S, 2.0, calibration=calibration, rng=derive_rng(8))
        sens, scale = calibrate(spec_cert(spec, S.n), S.d, 2.0, calibration)
        w = solve_erm(spec, S, 1e-8).weights
        assert (rel.sensitivity_used, rel.noise_scale) == (sens, scale)
        assert rel.calibration == calibration and rel.epsilon == 2.0
        np.testing.assert_array_equal(rel.noisy_weights, perturb(w, scale, derive_rng(8)))

    def test_l2_spec_releases_with_the_derived_calibration(self):
        S = elastic_fixture()
        spec = ObjectiveSpec("logistic", 0.1, penalty="l2")
        rel = release(spec, S, 1.0, calibration="derived", rng=derive_rng(0))
        # beta = 2 / (100 * 0.1) with lambda_sc = 0.1: L2 bound 2, L1 bound 2 sqrt(d)
        assert rel.noise_scale == pytest.approx(2.0 * math.sqrt(S.d), rel=1e-12)

    def test_convergence_error_propagates(self, monkeypatch):
        monkeypatch.setattr(privacy_mod, "solve_erm", functools.partial(solve_erm, max_iters=1))
        with pytest.raises(ConvergenceError):
            release(elastic_spec(), elastic_fixture(), 1.0, calibration="verbatim",
                    rng=derive_rng(0))


class TestOutputPerturb:
    """Output perturbation: a certificate's calibrated scale, applied by ``perturb``."""

    def test_zero_sensitivity_returns_exact_weights(self):
        w = np.array([0.5, -0.25])
        sens, scale = calibrate(user_cert(0.0, 1.0), 2, 1.0, "derived")
        np.testing.assert_array_equal(perturb(w, scale, derive_rng(0)), w)
        assert sens == scale == 0.0

    def test_l1_calibration_default_and_verbatim(self):
        cert = beta_l2_erm(1, 1, 100, 0.1)  # sqrt(2 beta / lambda_sc) = 2, so L1 = 4 in d = 4
        assert calibrate(cert, 4, 2.0, "derived") == (pytest.approx(4.0), pytest.approx(2.0))
        # verbatim is stated for the elastic-net constant and nothing else
        knob = stability_knob_scaling(beta_elastic_net(1, 1, 100, 0.1, 0.85), "steps", 1.0, 2.0)
        for other in (cert, user_cert(0.2, 0.1), knob):
            with pytest.raises(ValueError, match="elastic-net"):
                calibrate(other, 4, 1.0, "verbatim")

    def test_noise_variance_matches_two_b_squared(self):
        # scale 0.4 -> per-coordinate variance 2 * 0.4^2 = 0.32
        _, scale = calibrate(user_cert(0.08, 1.0), 1, 1.0, "derived")
        draws = np.array([perturb(np.zeros(1), scale, rng)[0]
                          for rng in [derive_rng(10, i) for i in range(20_000)]])
        assert draws.var() == pytest.approx(0.32, rel=0.05)

    def test_deterministic_given_seed(self):
        S, spec = elastic_fixture(), elastic_spec()
        r1 = release(spec, S, 2.0, calibration="derived", rng=derive_rng(7))
        r2 = release(spec, S, 2.0, calibration="derived", rng=derive_rng(7))
        np.testing.assert_array_equal(r1.noisy_weights, r2.noisy_weights)

    def test_coordinate_exchangeability(self):
        # marginal statistics of the first and last coordinate agree
        _, scale = calibrate(user_cert(0.1, 1.0), 5, 1.0, "derived")
        rng = derive_rng(20)
        noise = np.stack([perturb(np.zeros(5), scale, rng) for _ in range(20_000)])
        v_first, v_last = noise[:, 0].var(), noise[:, -1].var()
        assert v_first == pytest.approx(v_last, rel=0.06)

    def test_infinite_sensitivity_rejected(self):
        _, scale = calibrate(user_cert(1e308, 1e-10), 1, 1.0, "derived")
        with pytest.raises(ValueError, match="finite"):
            perturb(np.zeros(1), scale, derive_rng(0))


class TestPrivateElasticNet:
    """``release`` on the elastic-net objective: the private elastic net."""

    def test_release_scale_matches_hand_value(self):
        # beta = 2/(100*0.1*0.85) = 0.23529..., scale = sqrt(2 beta/(lam gamma)) = 40/17
        sens, scale = calibrate(beta_elastic_net(1.0, 1.0, 100, 0.1, 0.85), 3, 1.0, "verbatim")
        assert sens == pytest.approx(40.0 / 17.0, rel=1e-12)
        assert scale == pytest.approx(2.3529411764705883, rel=1e-12)
        rel = release(elastic_spec(), elastic_fixture(), 1.0, calibration="verbatim",
                      rng=derive_rng(0))
        assert rel.noise_scale == pytest.approx(40.0 / 17.0, rel=1e-12)

    def test_huge_epsilon_recovers_nonprivate_weights(self):
        S, spec = elastic_fixture(), elastic_spec()
        w = solve_erm(spec, S, 1e-8).weights
        rel = release(spec, S, 1e6, calibration="verbatim", rng=derive_rng(3))
        assert rel.noise_scale == pytest.approx(2.3529411764705883e-06, rel=1e-9)
        assert np.max(np.abs(rel.noisy_weights - w)) < 1e-4

    def test_gamma_one_degenerates_to_l2_release(self):
        S, spec = elastic_fixture(), elastic_spec(gamma=1.0, eta=0.0)
        rel = release(spec, S, 1.0, calibration="verbatim", rng=derive_rng(4))
        beta = 2.0 / (S.n * 0.1)
        assert rel.sensitivity_used == pytest.approx(math.sqrt(2 * beta / 0.1), rel=1e-12)
        # the trained weights under gamma=1, eta=0 equal the lam||w||^2 L2 fit
        w_l2 = solve_erm(ObjectiveSpec("logistic", 0.2, penalty="l2"),
                         S, 1e-8).weights
        rel2 = release(spec, S, 1e9, calibration="verbatim", rng=derive_rng(4))
        assert np.max(np.abs(rel2.noisy_weights - w_l2)) < 1e-6

    def test_derived_mode_applies_sqrt_d_over_sqrt_2(self):
        S, spec = elastic_fixture(), elastic_spec()
        v = release(spec, S, 1.0, calibration="verbatim", rng=derive_rng(0))
        d = release(spec, S, 1.0, calibration="derived", rng=derive_rng(0))
        # verbatim: sqrt(2 beta/(lam gamma)); derived: sqrt(d) * sqrt(2 beta/(2 lam gamma))
        assert d.noise_scale / v.noise_scale == pytest.approx(
            math.sqrt(S.d) / math.sqrt(2.0), rel=1e-12
        )

    def test_kappa_violation_rejected(self):
        S = Dataset(np.array([[3.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="kappa"):
            release(elastic_spec(), S, 1.0, calibration="verbatim", rng=derive_rng(0))


def _bounded_mean_release(scale):
    def fn(ds, rng, size):
        return float(np.mean(ds.features)) + laplace_sample(scale, size, rng)
    return fn


class TestPerturb:
    def test_adds_laplace_draws_in_row_major_order(self):
        W = np.arange(6.0).reshape(2, 3)
        out = perturb(W, 0.5, derive_rng(9))
        assert out.shape == W.shape
        assert np.array_equal(out, W + laplace_sample(0.5, 6, derive_rng(9)).reshape(2, 3))
        assert np.array_equal(W, np.arange(6.0).reshape(2, 3))

    def test_zero_scale_copies_and_draws_nothing(self):
        W = np.arange(3.0)
        rng = derive_rng(9)
        out = perturb(W, 0.0, rng)
        assert out is not W and np.array_equal(out, W)
        assert rng.random() == derive_rng(9).random()


class TestDpMicroCheck:
    def datasets(self, n=40):
        vals = np.linspace(0.0, 1.0, n)
        S = Dataset(vals[:, None], np.zeros(n))
        Sp = S.replace_record(0, np.array([1.0]), 0.0)  # worst-case neighbor, shift 1/n
        return S, Sp

    def test_identical_datasets_ratio_near_one(self):
        S, _ = self.datasets()
        rep = dp_micro_check(_bounded_mean_release(0.025), S, S, epsilon=1.0,
                             samples=200_000, seed=0)
        assert rep.empirical_value < 1.1
        assert rep.passed

    def test_calibrated_release_passes(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(_bounded_mean_release(1 / 40 / 1.0), S, Sp, epsilon=1.0,
                             samples=400_000, seed=1)
        assert rep.passed, rep.summary()

    def test_half_noise_negative_control_fails(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(_bounded_mean_release(1 / 40 / 2.0), S, Sp, epsilon=1.0,
                             samples=400_000, seed=2)
        assert not rep.passed, rep.summary()
        assert rep.details["confident_violations"] >= 1

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_epsilon_rejected(self, epsilon):
        # an infinite epsilon once passed even the half-noise release
        S, Sp = self.datasets()
        with pytest.raises(ValueError, match="epsilon"):
            dp_micro_check(_bounded_mean_release(1 / 40 / 2.0), S, Sp, epsilon=epsilon,
                           samples=1_000, seed=2)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_rejected(self, samples):
        S, Sp = self.datasets()
        with pytest.raises(ValueError, match="samples"):
            dp_micro_check(_bounded_mean_release(1 / 40), S, Sp, epsilon=1.0,
                           samples=samples, seed=2)

    def test_low_sample_bins_inconclusive_not_failed(self):
        S, Sp = self.datasets()
        rep = dp_micro_check(_bounded_mean_release(0.025), S, Sp, epsilon=1.0,
                             samples=2_000, seed=3, min_count=500)
        assert rep.details["bins_inconclusive"] > 0


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(50, 1000)
        assert lo < 0.05 < hi

    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_narrows_with_n(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(1000, 10_000)
        assert (hi2 - lo2) < (hi1 - lo1)
